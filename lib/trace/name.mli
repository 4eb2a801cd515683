(** Interned names: one dense int id per distinct string.

    The simulator's counter names ([Stats.counter]) and charge kinds
    ([Machine.kind]) are declared once, at module initialization, and
    used by id from then on, so a counter bump or a ledger charge indexes
    an array instead of hashing a string, and a trace stores a charge
    slice's kind as an int. It lives here, below the trace, so that every
    layer above shares the one table. Interning is idempotent: the
    same string always yields the same id, however many modules declare
    it. The table only interns names; every value indexed by an id lives
    in a per-run or per-machine structure. *)

type t = private int

val intern : string -> t
(** The id of a name, assigned on its first interning. Ids are dense:
    the [n]th distinct name gets [n - 1]. *)

val find : string -> t option
(** The id of a name interned earlier; [None] otherwise. For reads by
    name, which must not intern what nothing declared. *)

val name : int -> string
(** [name (id :> int)] is the name [id] was interned for; the tables
    indexed by ids read their slots' names this way. Raises
    [Invalid_argument] when no name has that id. *)

val count : unit -> int
(** Names interned so far: every id is below it. *)
