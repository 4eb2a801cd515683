(* Counterexample shrinking: truncation + ddmin.

   Because ops address candidates by index-modulo (see Op), every
   subsequence of a failing sequence is executable, so we can delete
   operations freely and simply ask the driver whether the remainder
   still fails — any failure counts, not just an identical message,
   since a shrunk sequence exposing a *different* divergence is still a
   minimal reproducer of a real bug. *)

let fails ?on_refusal ~seed ops =
  Driver.failed (Driver.replay ?on_refusal ~seed ops)

let take n l = List.filteri (fun i _ -> i < n) l
let drop_slice l ~at ~len =
  List.filteri (fun i _ -> i < at || i >= at + len) l

(* Classic delta debugging: try removing chunks of size n/2, n/4, ... 1,
   restarting from the current (smaller) sequence after each successful
   removal. *)
let ddmin ?on_refusal ~seed ops =
  let ops = ref ops in
  let chunk = ref (max 1 (List.length !ops / 2)) in
  while !chunk >= 1 do
    let progressed = ref true in
    while !progressed do
      progressed := false;
      let n = List.length !ops in
      let at = ref 0 in
      while !at < List.length !ops do
        let cand = drop_slice !ops ~at:!at ~len:!chunk in
        if
          List.length cand < List.length !ops && fails ?on_refusal ~seed cand
        then begin
          ops := cand;
          progressed := true
          (* keep [at]: the next slice slid into place *)
        end
        else at := !at + !chunk
      done;
      if List.length !ops >= n then progressed := false
    done;
    if !chunk = 1 then chunk := 0 else chunk := !chunk / 2
  done;
  !ops

let minimize ?on_refusal ~seed ops =
  match Driver.replay ?on_refusal ~seed ops with
  | { Driver.failure = None; _ } as r -> (ops, r)
  | { Driver.failure = Some (step, _, _); _ } ->
      (* Truncating to the failing step is the big first win: everything
         after it is dead weight by construction. *)
      let ops = take (step + 1) ops in
      let ops = ddmin ?on_refusal ~seed ops in
      (ops, Driver.replay ?on_refusal ~seed ops)
