type frame_id = int

(* Frame payloads are materialized on first allocation so that building a
   large simulated memory is cheap; a recycled frame keeps its old bytes
   (no implicit zeroing — that cost is explicit and charged). *)
type frame = { mutable data : bytes; mutable refcount : int }

(* The free pool is a LIFO stack: recently freed frames are reallocated
   first. Recency matters to the TLB layer — a teardown that frees an
   fbuf's frames in reverse page order (see [Vm_map.unmap]) leaves them
   on the stack so the next same-size allocation pops them back in page
   order, restoring the identical vpn -> frame translations and letting
   the queued shootdowns be cancelled instead of flushed. The stack is
   [free.(0 .. nfree - 1)], top last: a free frame is on it exactly once,
   so [nframes] slots always suffice and a push allocates nothing. *)
type t = {
  page_size : int;
  frames : frame array;
  free : frame_id array;
  mutable nfree : int;
}

exception Out_of_memory

let create ~page_size ~nframes =
  let frames =
    Array.init nframes (fun _ -> { data = Bytes.empty; refcount = 0 })
  in
  (* Frame [nframes - 1] on top: the first allocations hand out the
     highest frames first. *)
  { page_size; frames; free = Array.init nframes Fun.id; nfree = nframes }

let page_size t = t.page_size
let total_frames t = Array.length t.frames
let free_frames t = t.nfree

let alloc t =
  if t.nfree = 0 then raise Out_of_memory;
  t.nfree <- t.nfree - 1;
  let id = t.free.(t.nfree) in
  let f = t.frames.(id) in
  assert (f.refcount = 0);
  if Bytes.length f.data = 0 then f.data <- Bytes.create t.page_size;
  f.refcount <- 1;
  id

let check_live t id name =
  if id < 0 || id >= Array.length t.frames then
    invalid_arg (name ^ ": bad frame id");
  if t.frames.(id).refcount = 0 then invalid_arg (name ^ ": frame is free")

let incref t id =
  check_live t id "Phys_mem.incref";
  let f = t.frames.(id) in
  f.refcount <- f.refcount + 1

let decref t id =
  check_live t id "Phys_mem.decref";
  let f = t.frames.(id) in
  f.refcount <- f.refcount - 1;
  if f.refcount = 0 then begin
    t.free.(t.nfree) <- id;
    t.nfree <- t.nfree + 1
  end

let refcount t id =
  if id < 0 || id >= Array.length t.frames then
    invalid_arg "Phys_mem.refcount: bad frame id";
  t.frames.(id).refcount

let zero t id =
  check_live t id "Phys_mem.zero";
  Bytes.fill t.frames.(id).data 0 t.page_size '\000'

let data t id =
  check_live t id "Phys_mem.data";
  t.frames.(id).data

let poke t id off c =
  check_live t id "Phys_mem.poke";
  if off < 0 || off >= t.page_size then
    invalid_arg "Phys_mem.poke: offset outside the page";
  Bytes.set t.frames.(id).data off c

let fill t id c =
  check_live t id "Phys_mem.fill";
  Bytes.fill t.frames.(id).data 0 t.page_size c

let copy_frame t ~src ~dst =
  check_live t src "Phys_mem.copy_frame";
  check_live t dst "Phys_mem.copy_frame";
  Bytes.blit t.frames.(src).data 0 t.frames.(dst).data 0 t.page_size
