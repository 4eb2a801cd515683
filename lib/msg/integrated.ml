open Fbufs_sim
open Fbufs_vm
open Fbufs

let node_size = 16

(* The four reasons a deserialization refuses a node, one counter each. *)
let bad_data_ref = Stats.counter "integrated.bad_data_ref"
let bad_node = Stats.counter "integrated.bad_node"
let budget_exhausted = Stats.counter "integrated.budget_exhausted"
let cycle = Stats.counter "integrated.cycle"

let tag_leaf = 1
let tag_cat = 2

(* Msg.t is abstract here; count/serialize work through the public API:
   leaves and splits would lose sharing, so we measure structure via
   [Msg.leaves] and rebuild a right-leaning spine. A spine is semantically
   identical (same byte stream) and keeps the serialized form linear in the
   number of leaves, which also bounds the meta buffer size predictably. *)

let node_count m =
  match List.length (Msg.leaves m) with
  | 0 -> 1 (* a single empty leaf node *)
  | n -> n + max 0 (n - 1)

let serialize m ~meta ~as_ =
  let needed = node_count m * node_size in
  if needed > Fbuf.size meta then
    invalid_arg
      (Printf.sprintf "Integrated.serialize: need %d bytes, meta has %d"
         needed (Fbuf.size meta));
  let base = Fbuf.vaddr meta in
  (* Assemble the node records locally, then store them with one bulk
     write: the serializer runs at bcopy speed, not one store per field. *)
  let buf = Bytes.create needed in
  let next = ref 0 in
  (* Layout: u32 tag, u32 w1, u32 w2, u32 pad — little-endian machine
     words, the same encoding Access.read_word decodes. *)
  let write_node tag w1 w2 =
    let off = !next in
    next := off + node_size;
    Bytes.set_int32_le buf off (Int32.of_int tag);
    Bytes.set_int32_le buf (off + 4) (Int32.of_int w1);
    Bytes.set_int32_le buf (off + 8) (Int32.of_int w2);
    Bytes.set_int32_le buf (off + 12) 0l;
    base + off
  in
  let write_leaf (l : Msg.leaf) =
    write_node tag_leaf (Fbuf.vaddr l.Msg.fbuf + l.Msg.off) l.Msg.len
  in
  let root =
    match Msg.leaves m with
    | [] -> write_node tag_leaf 0 0
    | [ l ] -> write_leaf l
    | l :: rest ->
        (* Right-leaning spine, built back to front. *)
        let rec spine = function
          | [] -> assert false
          | [ x ] -> write_leaf x
          | x :: more ->
              let right = spine more in
              let left = write_leaf x in
              write_node tag_cat left right
        in
        let right = spine rest in
        let left = write_leaf l in
        write_node tag_cat left right
  in
  Access.write_bytes as_ ~vaddr:base (Bytes.sub buf 0 !next);
  root

let max_nodes = 4096

let in_region_vaddr region ~vaddr ~m =
  let ps = (Region.machine region).Machine.cost.Cost_model.page_size in
  ignore m;
  Region.in_region region ~vpn:(vaddr / ps)

(* A node record is [node_size] bytes, so both its first and last byte must
   fall inside the region: a record starting within the last 15 bytes of
   the region passes the single-page check yet its bulk read would cross
   into non-region pages, where the dead-page defence does not apply. Such
   a reference is malformed structure and must count as an anomaly, never
   escape as a fault. *)
let node_in_region region ~vaddr ~m =
  in_region_vaddr region ~vaddr ~m
  && in_region_vaddr region ~vaddr:(vaddr + node_size - 1) ~m

let deserialize region ~as_ ~root_vaddr =
  let machine = Region.machine region in
  let ps = machine.Machine.cost.Cost_model.page_size in
  let stats = machine.Machine.stats in
  let visited = Hashtbl.create 64 in
  let budget = ref max_nodes in
  let bad reason =
    Stats.incr stats reason;
    Msg.empty
  in
  let rec node vaddr =
    if !budget <= 0 then bad budget_exhausted
    else if not (node_in_region region ~vaddr ~m:machine) then bad bad_node
    else if Hashtbl.mem visited vaddr then bad cycle
    else begin
      decr budget;
      Hashtbl.add visited vaddr ();
      (* Reading an unmapped page yields the dead page: tag 0. One bulk
         read per node keeps traversal at bcopy speed. *)
      let b = Access.read_bytes as_ ~vaddr ~len:node_size in
      let field i = Int32.to_int (Bytes.get_int32_le b i) land 0xFFFFFFFF in
      let tag = field 0 in
      let w1 = field 4 in
      let w2 = field 8 in
      let result =
        if tag = tag_leaf then begin
          if w2 = 0 then Msg.empty
          else if not (in_region_vaddr region ~vaddr:w1 ~m:machine) then
            bad bad_data_ref
          else
            match Region.fbuf_at region ~vpn:(w1 / ps) with
            | None -> bad bad_data_ref
            | Some fb ->
                let off = w1 - Fbuf.vaddr fb in
                if off < 0 || w2 < 0 || off + w2 > Fbuf.size fb then
                  bad bad_data_ref
                else Msg.of_fbuf fb ~off ~len:w2
        end
        else if tag = tag_cat then Msg.join (node w1) (node w2)
        else bad bad_node
      in
      (* A DAG may legitimately share subtrees; only in-progress nodes are
         cycles. Allow re-visits of completed nodes. *)
      Hashtbl.remove visited vaddr;
      result
    end
  in
  node root_vaddr

let reachable_fbufs region ~as_ ~root_vaddr =
  let machine = Region.machine region in
  let ps = machine.Machine.cost.Cost_model.page_size in
  let seen_fb = Hashtbl.create 8 in
  let order = ref [] in
  let note vaddr =
    match Region.fbuf_at region ~vpn:(vaddr / ps) with
    | Some fb when not (Hashtbl.mem seen_fb fb.Fbuf.id) ->
        Hashtbl.add seen_fb fb.Fbuf.id ();
        order := fb :: !order
    | Some _ | None -> ()
  in
  let visited = Hashtbl.create 64 in
  let budget = ref max_nodes in
  let rec walk vaddr =
    if
      !budget > 0
      && node_in_region region ~vaddr ~m:machine
      && not (Hashtbl.mem visited vaddr)
    then begin
      decr budget;
      Hashtbl.add visited vaddr ();
      note vaddr;
      let b = Access.read_bytes as_ ~vaddr ~len:node_size in
      let field i = Int32.to_int (Bytes.get_int32_le b i) land 0xFFFFFFFF in
      let tag = field 0 in
      let w1 = field 4 in
      let w2 = field 8 in
      if tag = tag_leaf then begin
        if w2 > 0 && in_region_vaddr region ~vaddr:w1 ~m:machine then
          note w1
      end
      else if tag = tag_cat then begin
        walk w1;
        walk w2
      end
    end
  in
  walk root_vaddr;
  List.rev !order
