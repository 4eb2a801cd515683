module Json = Fbufs_trace.Json

(* DDSketch-style mergeable quantile sketch.

   Positive values land in log-spaced buckets: x maps to the bucket
   index ceil(log_gamma x) with gamma = (1+alpha)/(1-alpha), so the
   bucket midpoint 2*gamma^i/(gamma+1) is within relative error alpha of
   every value in the bucket. Zeros get their own bucket and negatives a
   mirrored table. All per-bucket state is an integer count, so [merge]
   is exact — associative and commutative under {!equal} — which is what
   lets per-path sketches roll up across machines without error
   accumulation. The running [sum] is float (kept for reporting and for
   the registry's scalar view) and is deliberately excluded from
   {!equal}.

   [add] runs once per observed PDU and allocates nothing once its
   bucket exists: the count is read with [Hashtbl.find] (no option) and
   rewritten in place by [replace], the bucket index is computed inline
   (a float passed to a helper would be boxed), and the float state
   lives in an all-float record, stored flat, where a float field of [t]
   would box on every write. *)

(* The running sum and extremes. *)
type floats = {
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
}

type t = {
  alpha : float;
  gamma : float;
  log_gamma : float;
  pos : (int, int) Hashtbl.t;
  neg : (int, int) Hashtbl.t;
  mutable zero : int;
  mutable n : int;
  f : floats;
}

let create ?(alpha = 0.01) () =
  if not (alpha > 0.0 && alpha < 1.0) then
    invalid_arg "Sketch.create: alpha must be in (0, 1)";
  let gamma = (1.0 +. alpha) /. (1.0 -. alpha) in
  {
    alpha;
    gamma;
    log_gamma = log gamma;
    pos = Hashtbl.create 64;
    neg = Hashtbl.create 8;
    zero = 0;
    n = 0;
    f = { sum = 0.0; minv = Float.infinity; maxv = Float.neg_infinity };
  }

let alpha t = t.alpha
let count t = t.n
let sum t = t.f.sum
let min_value t = if t.n = 0 then Float.nan else t.f.minv
let max_value t = if t.n = 0 then Float.nan else t.f.maxv

let bump tbl i =
  match Hashtbl.find tbl i with
  | c -> Hashtbl.replace tbl i (c + 1)
  | exception Not_found -> Hashtbl.replace tbl i 1

let add t x =
  if Float.is_nan x then invalid_arg "Sketch.add: nan";
  if x = 0.0 then t.zero <- t.zero + 1
  else
    bump
      (if x > 0.0 then t.pos else t.neg)
      (int_of_float (Float.ceil (log (Float.abs x) /. t.log_gamma)));
  t.n <- t.n + 1;
  let f = t.f in
  f.sum <- f.sum +. x;
  if x < f.minv then f.minv <- x;
  if x > f.maxv then f.maxv <- x

let midpoint t i = 2.0 *. (t.gamma ** float_of_int i) /. (t.gamma +. 1.0)

let sorted tbl =
  Hashtbl.fold (fun i c acc -> (i, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let quantile t p =
  if t.n = 0 then Float.nan
  else begin
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank =
      max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n)))
    in
    (* Ascending value order: negatives (largest magnitude first), the
       zero bucket, then positives. *)
    let seen = ref 0 in
    let result = ref Float.nan in
    let take v c =
      if Float.is_nan !result then begin
        seen := !seen + c;
        if !seen >= rank then result := v
      end
    in
    List.iter
      (fun (i, c) -> take (-.midpoint t i) c)
      (List.rev (sorted t.neg));
    take 0.0 t.zero;
    List.iter (fun (i, c) -> take (midpoint t i) c) (sorted t.pos);
    (* Clamp into the observed range: the extreme buckets over-shoot
       their midpoints while min/max are exact. *)
    Float.max t.f.minv (Float.min t.f.maxv !result)
  end

let merge_into dst src =
  Hashtbl.iter (fun i c -> Hashtbl.replace dst.pos i
    (c + Option.value ~default:0 (Hashtbl.find_opt dst.pos i))) src.pos;
  Hashtbl.iter (fun i c -> Hashtbl.replace dst.neg i
    (c + Option.value ~default:0 (Hashtbl.find_opt dst.neg i))) src.neg;
  dst.zero <- dst.zero + src.zero;
  dst.n <- dst.n + src.n;
  dst.f.sum <- dst.f.sum +. src.f.sum;
  if src.f.minv < dst.f.minv then dst.f.minv <- src.f.minv;
  if src.f.maxv > dst.f.maxv then dst.f.maxv <- src.f.maxv

let merge a b =
  if a.alpha <> b.alpha then
    invalid_arg "Sketch.merge: sketches have different alpha";
  let t = create ~alpha:a.alpha () in
  merge_into t a;
  merge_into t b;
  t

let equal a b =
  a.alpha = b.alpha && a.zero = b.zero && a.n = b.n
  && sorted a.pos = sorted b.pos
  && sorted a.neg = sorted b.neg
  && (a.n = 0 || (a.f.minv = b.f.minv && a.f.maxv = b.f.maxv))

(* -- serialization ------------------------------------------------------ *)

let buckets_json tbl =
  Json.List
    (List.map (fun (i, c) -> Json.List [ Json.Int i; Json.Int c ]) (sorted tbl))

let to_json t =
  Json.Obj
    [
      ("alpha", Json.Float t.alpha);
      ("zero", Json.Int t.zero);
      ("n", Json.Int t.n);
      ("sum", Json.Float t.f.sum);
      ("min", (if t.n = 0 then Json.Null else Json.Float t.f.minv));
      ("max", (if t.n = 0 then Json.Null else Json.Float t.f.maxv));
      ("pos", buckets_json t.pos);
      ("neg", buckets_json t.neg);
    ]

exception Bad_sketch of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_sketch s)) fmt

let jnum name = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> bad "field %S: expected number" name

let jint name = function
  | Json.Int i -> i
  | _ -> bad "field %S: expected int" name

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> bad "missing field %S" name

let read_buckets name tbl j =
  match field name j with
  | Json.List rows ->
      List.iter
        (fun row ->
          match row with
          | Json.List [ Json.Int i; Json.Int c ] -> Hashtbl.replace tbl i c
          | _ -> bad "field %S: expected [index, count] pairs" name)
        rows
  | _ -> bad "field %S: expected list" name

let of_json j =
  let t = create ~alpha:(jnum "alpha" (field "alpha" j)) () in
  t.zero <- jint "zero" (field "zero" j);
  t.n <- jint "n" (field "n" j);
  t.f.sum <- jnum "sum" (field "sum" j);
  (match field "min" j with
  | Json.Null -> ()
  | v -> t.f.minv <- jnum "min" v);
  (match field "max" j with
  | Json.Null -> ()
  | v -> t.f.maxv <- jnum "max" v);
  read_buckets "pos" t.pos j;
  read_buckets "neg" t.neg j;
  t

let to_json_string t = Json.to_string (to_json t)
let of_json_string s = of_json (Json.parse s)
