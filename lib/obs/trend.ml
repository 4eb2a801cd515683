module Json = Fbufs_trace.Json

type row = { name : string; ns_per_run : float option }

exception Bad_snapshot of string

let num = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

let load_string s =
  match Json.parse s with
  | Json.List items ->
      List.map
        (fun item ->
          let name =
            match Json.member "name" item with
            | Some (Json.String s) -> s
            | _ -> raise (Bad_snapshot "benchmark entry without name")
          in
          { name; ns_per_run = Option.bind (Json.member "ns_per_run" item) num })
        items
  | _ -> raise (Bad_snapshot "snapshot is not a JSON list")

let load_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> load_string (really_input_string ic (in_channel_length ic)))

type verdict = {
  bench : string;
  n : int;
  first_ns : float;
  last_ns : float;
  slope_pct : float;
  change_at : int option;
  pre_mean : float;
  post_mean : float;
  delta_pct : float;
  regressed : bool;
  missing_latest : bool;
}

type result = {
  files : string list;
  verdicts : verdict list;
  tolerance_pct : float;
  failed : bool;
}

let mean xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let ols_slope xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let fn = float_of_int n in
    let xbar = (fn -. 1.0) /. 2.0 in
    let ybar = mean xs in
    let num = ref 0.0 and den = ref 0.0 in
    Array.iteri
      (fun i y ->
        let dx = float_of_int i -. xbar in
        num := !num +. (dx *. (y -. ybar));
        den := !den +. (dx *. dx))
      xs;
    if !den = 0.0 then 0.0 else !num /. !den
  end

let sse xs lo hi =
  (* sum of squared deviations of xs.(lo..hi-1) from their mean *)
  let n = hi - lo in
  if n <= 0 then 0.0
  else begin
    let m = ref 0.0 in
    for i = lo to hi - 1 do
      m := !m +. xs.(i)
    done;
    let m = !m /. float_of_int n in
    let s = ref 0.0 in
    for i = lo to hi - 1 do
      let d = xs.(i) -. m in
      s := !s +. (d *. d)
    done;
    !s
  end

(* Best two-segment split: k in [1, n-1] minimizing summed SSE; the
   pre segment is [0,k), the post segment [k,n). *)
let changepoint xs =
  let n = Array.length xs in
  if n < 2 then None
  else begin
    let best_k = ref 1 and best_cost = ref infinity in
    for k = 1 to n - 1 do
      let cost = sse xs 0 k +. sse xs k n in
      if cost < !best_cost then begin
        best_cost := cost;
        best_k := k
      end
    done;
    Some !best_k
  end

let seg_mean xs lo hi =
  let s = ref 0.0 in
  for i = lo to hi - 1 do
    s := !s +. xs.(i)
  done;
  !s /. float_of_int (hi - lo)

let analyze_rows ~named ~tolerance_pct =
  if List.length named < 2 then
    invalid_arg "Trend.analyze_rows: need at least two snapshots";
  let files = List.map fst named in
  let snapshots = List.map snd named in
  let latest = List.nth snapshots (List.length snapshots - 1) in
  let names =
    List.concat_map
      (List.filter_map (fun r ->
           match r.ns_per_run with Some _ -> Some r.name | None -> None))
      snapshots
    |> List.sort_uniq String.compare
  in
  let verdicts =
    List.map
      (fun bench ->
        let series =
          List.filter_map
            (fun rows ->
              List.find_map
                (fun r -> if r.name = bench then r.ns_per_run else None)
                rows)
            snapshots
        in
        let xs = Array.of_list series in
        let n = Array.length xs in
        let missing_latest =
          not
            (List.exists
               (fun r -> r.name = bench && r.ns_per_run <> None)
               latest)
        in
        if n < 2 then
          {
            bench;
            n;
            first_ns = (if n > 0 then xs.(0) else 0.0);
            last_ns = (if n > 0 then xs.(n - 1) else 0.0);
            slope_pct = 0.0;
            change_at = None;
            pre_mean = 0.0;
            post_mean = 0.0;
            delta_pct = 0.0;
            regressed = missing_latest;
            missing_latest;
          }
        else begin
          let m = mean xs in
          let slope_pct =
            if m = 0.0 then 0.0 else 100.0 *. ols_slope xs /. m
          in
          let k = Option.get (changepoint xs) in
          let pre_mean = seg_mean xs 0 k in
          let post_mean = seg_mean xs k n in
          let delta_pct =
            if pre_mean = 0.0 then 0.0
            else 100.0 *. (post_mean -. pre_mean) /. pre_mean
          in
          let stepped = delta_pct > tolerance_pct in
          {
            bench;
            n;
            first_ns = xs.(0);
            last_ns = xs.(n - 1);
            slope_pct;
            change_at = (if n >= 3 then Some k else None);
            pre_mean;
            post_mean;
            delta_pct;
            regressed = stepped || missing_latest;
            missing_latest;
          }
        end)
      names
  in
  {
    files;
    verdicts;
    tolerance_pct;
    failed = List.exists (fun v -> v.regressed) verdicts;
  }

let analyze ~files ~tolerance_pct =
  let named = List.map (fun f -> (f, load_file f)) files in
  analyze_rows ~named ~tolerance_pct

let render r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "bench-trend over %d snapshots (tolerance %.0f%%)\n"
       (List.length r.files) r.tolerance_pct);
  Buffer.add_string buf
    (Printf.sprintf "%-28s %3s %12s %12s %9s %6s %9s  %s\n" "benchmark" "n"
       "first ns" "last ns" "slope/step" "chg@" "step%" "verdict");
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "%-28s %3d %12.1f %12.1f %8.2f%% %6s %8.1f%%  %s\n"
           v.bench v.n v.first_ns v.last_ns v.slope_pct
           (match v.change_at with Some k -> string_of_int k | None -> "-")
           v.delta_pct
           (if v.missing_latest then "MISSING"
            else if v.regressed then "REGRESSED"
            else "ok")))
    r.verdicts;
  Buffer.add_string buf (if r.failed then "FAIL\n" else "PASS\n");
  Buffer.contents buf

let to_json r =
  Json.Obj
    [
      ("files", Json.List (List.map (fun f -> Json.String f) r.files));
      ("tolerance_pct", Json.Float r.tolerance_pct);
      ("failed", Json.Bool r.failed);
      ( "benchmarks",
        Json.List
          (List.map
             (fun v ->
               Json.Obj
                 [
                   ("name", Json.String v.bench);
                   ("n", Json.Int v.n);
                   ("first_ns", Json.Float v.first_ns);
                   ("last_ns", Json.Float v.last_ns);
                   ("slope_pct_per_step", Json.Float v.slope_pct);
                   ( "change_at",
                     match v.change_at with
                     | Some k -> Json.Int k
                     | None -> Json.Null );
                   ("pre_mean_ns", Json.Float v.pre_mean);
                   ("post_mean_ns", Json.Float v.post_mean);
                   ("delta_pct", Json.Float v.delta_pct);
                   ("regressed", Json.Bool v.regressed);
                   ("missing_latest", Json.Bool v.missing_latest);
                 ])
             r.verdicts) );
    ]
