open Fbufs
module Msg = Fbufs_msg.Msg

let prepend ~alloc ~as_ hdr msg =
  let fb = Allocator.alloc alloc ~npages:1 in
  Fbuf_api.write_bytes fb ~as_ ~off:0 hdr;
  (fb, Msg.join (Msg.of_fbuf fb ~off:0 ~len:(Bytes.length hdr)) msg)

let release_header ~dom fb =
  if Fbuf.ref_count fb dom > 0 then Transfer.free fb ~dom

let peek msg ~as_ ~len =
  if Msg.length msg < len then
    invalid_arg
      (Printf.sprintf "Header.peek: message of %d bytes, header needs %d"
         (Msg.length msg) len);
  Msg.sub_bytes msg ~as_ ~off:0 ~len

(* The domain and the payload ride as the accumulator, so the callback
   captures nothing; [Msg.mem_fbuf] takes no walk stamp, so it may run
   inside the walk. Frees happen in the PDU's first-appearance order. *)
let free_unshared (fb : Fbuf.t) ((dom, payload) as acc) =
  if (not (Msg.mem_fbuf fb payload)) && Fbuf.ref_count fb dom > 0 then
    Transfer.free fb ~dom;
  acc

let free_stripped ~dom ~pdu ~payload =
  ignore (Msg.fold_fbufs free_unshared pdu (dom, payload))

let get_u16 b i = (Char.code (Bytes.get b i) lsl 8) lor Char.code (Bytes.get b (i + 1))

let set_u16 b i v =
  Bytes.set b i (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (i + 1) (Char.chr (v land 0xFF))

let get_u32 b i =
  (Char.code (Bytes.get b i) lsl 24)
  lor (Char.code (Bytes.get b (i + 1)) lsl 16)
  lor (Char.code (Bytes.get b (i + 2)) lsl 8)
  lor Char.code (Bytes.get b (i + 3))

let set_u32 b i v =
  Bytes.set b i (Char.chr ((v lsr 24) land 0xFF));
  Bytes.set b (i + 1) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b (i + 2) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (i + 3) (Char.chr (v land 0xFF))
