open Fbufs_sim
open Fbufs_vm
open Fbufs

let msg_unit_gather = Stats.counter "msg.unit_gather"

type leaf = { fbuf : Fbuf.t; off : int; len : int }

type t = Empty | Leaf of leaf | Cat of { left : t; right : t; len : int }

let empty = Empty

let length = function Empty -> 0 | Leaf l -> l.len | Cat c -> c.len

let is_empty m = length m = 0

let of_fbuf fbuf ~off ~len =
  if off < 0 || len < 0 || off + len > Fbuf.size fbuf then
    invalid_arg
      (Printf.sprintf "Msg.of_fbuf: window [%d,%d) outside %d-byte fbuf" off
         (off + len) (Fbuf.size fbuf));
  if len = 0 then Empty else Leaf { fbuf; off; len }

let join a b =
  match (a, b) with
  | Empty, m | m, Empty -> m
  | _ -> Cat { left = a; right = b; len = length a + length b }

(* [clip_from] and [truncate_to] build only the side they keep; [split]
   is the pair of them. Both assume [k] is inside [0, length m]. *)
let rec clip_from m k =
  if k = 0 then m
  else if k = length m then Empty
  else
    match m with
    | Empty -> Empty
    | Leaf l -> Leaf { l with off = l.off + k; len = l.len - k }
    | Cat c ->
        let ll = length c.left in
        if k <= ll then join (clip_from c.left k) c.right
        else clip_from c.right (k - ll)

let rec truncate_to m k =
  if k = 0 then Empty
  else if k = length m then m
  else
    match m with
    | Empty -> Empty
    | Leaf l -> Leaf { l with len = k }
    | Cat c ->
        let ll = length c.left in
        if k <= ll then truncate_to c.left k
        else join c.left (truncate_to c.right (k - ll))

let check_cut name m k =
  if k < 0 || k > length m then
    invalid_arg (Printf.sprintf "Msg.%s: %d outside [0, %d]" name k (length m))

let split m k =
  check_cut "split" m k;
  (truncate_to m k, clip_from m k)

let clip m k =
  check_cut "clip" m k;
  clip_from m k

let truncate m k =
  check_cut "truncate" m k;
  truncate_to m k

let leaves m =
  let rec go acc = function
    | Empty -> acc
    | Leaf l -> l :: acc
    | Cat c -> go (go acc c.right) c.left
  in
  go [] m

let rec fold_leaves f m acc =
  match m with
  | Empty -> acc
  | Leaf l -> f l acc
  | Cat c -> fold_leaves f c.right (fold_leaves f c.left acc)

let rec mem_fbuf (fb : Fbuf.t) = function
  | Empty -> false
  | Leaf l -> l.fbuf.Fbuf.id = fb.Fbuf.id
  | Cat c -> mem_fbuf fb c.left || mem_fbuf fb c.right

(* The distinct-fbuf walk behind [fbufs], [free_all], [free_held] and IPC
   transfer. Each walk takes a fresh stamp and marks every fbuf it visits
   with it, so a leaf whose fbuf already carries the stamp repeats an
   earlier one: linear in the leaves, with no table of buffers seen and
   no allocation. (A buffer is one record per id: ids are unique per
   machine and a message never spans machines.) A walk started inside
   [f] would re-mark buffers under this one, so it is refused. *)
let walks = ref 0

let rec fold_from stamp f m acc =
  match m with
  | Empty -> acc
  | Cat c -> fold_from stamp f c.right (fold_from stamp f c.left acc)
  | Leaf l ->
      let fb = l.fbuf in
      if fb.Fbuf.walk = stamp then acc
      else begin
        fb.Fbuf.walk <- stamp;
        let acc = f fb acc in
        if !walks <> stamp then
          invalid_arg "Msg.fold_fbufs: a walk inside the callback";
        acc
      end

let fold_fbufs f m acc =
  incr walks;
  fold_from !walks f m acc

let fbufs m = List.rev (fold_fbufs List.cons m [])

let rec depth = function
  | Empty | Leaf _ -> 1
  | Cat c -> 1 + max (depth c.left) (depth c.right)

let leaf_vaddr l = Fbuf.vaddr l.fbuf + l.off

(* Reads the part of [m] (which starts at message offset [base]) that
   overlaps [lo, hi) into [out], at [lo]'s position 0. Each overlapping
   leaf window is one [Access.read_into], left to right: the windows of
   [leaves (truncate (clip m lo) (hi - lo))], read without building that
   message or its leaf list. *)
let rec read_range as_ out lo hi base m =
  match m with
  | Empty -> ()
  | Leaf l ->
      let s = max lo base and e = min hi (base + l.len) in
      if s < e then
        Access.read_into as_ ~vaddr:(leaf_vaddr l + (s - base)) ~len:(e - s)
          out ~pos:(s - lo)
  | Cat c ->
      let mid = base + length c.left in
      if lo < mid then read_range as_ out lo hi base c.left;
      if hi > mid then read_range as_ out lo hi mid c.right

let sub_bytes m ~as_ ~off ~len =
  if off < 0 || len < 0 || off > length m - len then
    invalid_arg
      (Printf.sprintf "Msg.sub_bytes: [%d, %d) outside [0, %d]" off (off + len)
         (length m));
  let out = Bytes.create len in
  if len > 0 then read_range as_ out off (off + len) 0 m;
  out

let to_bytes m ~as_ = sub_bytes m ~as_ ~off:0 ~len:(length m)

let to_string m ~as_ = Bytes.to_string (to_bytes m ~as_)

(* Ones'-complement sum over the message as one byte stream: a leaf ending
   on an odd byte offset shifts the pairing in the next leaf, which the
   composable Access state handles. Computed in place — no gather copy. *)
let checksum m ~as_ =
  let state =
    List.fold_left
      (fun state l ->
        Access.checksum_feed as_ ~vaddr:(leaf_vaddr l) ~len:l.len state)
      Access.checksum_start (leaves m)
  in
  Access.checksum_finish state

let iter_units m ~as_ ~unit_size f =
  if unit_size <= 0 then invalid_arg "Msg.iter_units: unit_size must be > 0";
  let total = length m in
  let machine = as_.Pd.m in
  let rec go m =
    if length m > 0 then begin
      let k = min unit_size (length m) in
      let unit, rest = split m k in
      (match leaves unit with
      | [ l ] -> f (Access.read_bytes as_ ~vaddr:(leaf_vaddr l) ~len:l.len)
      | _ ->
          (* Unit crosses a fragment boundary: gather copy. *)
          Stats.incr machine.Machine.stats msg_unit_gather;
          f (to_bytes unit ~as_));
      go rest
    end
  in
  ignore total;
  go m

(* Left to right over the leaves, without building the leaf list. *)
let rec touch_read m ~as_ =
  match m with
  | Empty -> ()
  | Cat c ->
      touch_read c.left ~as_;
      touch_read c.right ~as_
  | Leaf l ->
      let ps = as_.Pd.m.Machine.cost.Cost_model.page_size in
      let first = leaf_vaddr l in
      let last = first + l.len - 1 in
      for page = first / ps to last / ps do
        (* One word per spanned page, at the start of the covered range;
           reading a trailing word within the same fbuf page is fine. *)
        let va = max first (page * ps) in
        let va = if va mod ps > ps - 4 then (page * ps) + ps - 4 else va in
        ignore (Access.read_word as_ ~vaddr:va)
      done

(* The domain rides as the accumulator, so the callbacks capture nothing
   and the walks allocate nothing. *)
let free_all m ~dom =
  ignore
    (fold_fbufs
       (fun fb (dom : Pd.t) ->
         Transfer.free fb ~dom;
         dom)
       m dom)

let free_held m ~dom =
  ignore
    (fold_fbufs
       (fun fb (dom : Pd.t) ->
         if Fbuf.ref_count fb dom > 0 then Transfer.free fb ~dom;
         dom)
       m dom)

let pp ppf m =
  let ls = leaves m in
  Format.fprintf ppf "msg[%dB:%s]" (length m)
    (String.concat "+"
       (List.map
          (fun l -> Printf.sprintf "#%d@%d+%d" l.fbuf.Fbuf.id l.off l.len)
          ls))
