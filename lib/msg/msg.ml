open Fbufs_sim
open Fbufs_vm
open Fbufs

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

let rec split m k =
  if k < 0 || k > length m then
    invalid_arg
      (Printf.sprintf "Msg.split: %d outside [0, %d]" k (length m));
  if k = 0 then (Empty, m)
  else if k = length m then (m, Empty)
  else
    match m with
    | Empty -> (Empty, Empty)
    | Leaf l ->
        ( Leaf { l with len = k },
          Leaf { l with off = l.off + k; len = l.len - k } )
    | Cat c ->
        let ll = length c.left in
        if k <= ll then
          let a, b = split c.left k in
          (a, join b c.right)
        else
          let a, b = split c.right (k - ll) in
          (join c.left a, b)

let clip m k = snd (split m k)
let truncate m k = fst (split m k)

let leaves m =
  let rec go acc = function
    | Empty -> acc
    | Leaf l -> l :: acc
    | Cat c -> go (go acc c.right) c.left
  in
  go [] m

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

let to_bytes m ~as_ =
  let out = Bytes.create (length m) in
  let pos = ref 0 in
  List.iter
    (fun l ->
      let b = Access.read_bytes as_ ~vaddr:(leaf_vaddr l) ~len:l.len in
      Bytes.blit b 0 out !pos l.len;
      pos := !pos + l.len)
    (leaves m);
  out

let to_string m ~as_ = Bytes.to_string (to_bytes m ~as_)

let sub_bytes m ~as_ ~off ~len = to_bytes (truncate (clip m off) len) ~as_

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
          Stats.incr machine.Machine.stats "msg.unit_gather";
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
