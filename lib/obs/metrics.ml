(* Process-wide registry of named counters, gauges, and log-scale
   histograms, for what the campaign's merged events do not carry (the
   interface lists the instruments). Creation is idempotent, so hot
   modules bind their instruments at init time; [reset] zeroes values
   in place, so cached handles stay valid. Campaign workers observe
   concurrently, so every update takes the one process-wide mutex. *)

let mu = Mutex.create ()

type counter = { mutable c : int }
type gauge = { mutable g : float }

(* Histogram buckets are powers of two: bucket 0 collects v <= 0, bucket
   i >= 1 collects 2^(emin+i-1) <= v < 2^(emin+i). The exponent range
   [emin, emax] spans nanoseconds-in-seconds (2^-30 ~ 1e-9) up past
   float max_int (2^62), so both sub-second timings and step counts fit
   without configuration. *)
let emin = -30
let emax = 63
let n_buckets = emax - emin + 2

type histogram = {
  mutable count : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
  buckets : int array;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 32

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let register name make =
  Mutex.protect mu (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> m
      | None ->
        let m = make () in
        Hashtbl.replace registry name m;
        m)

let counter name =
  match register name (fun () -> Counter { c = 0 }) with
  | Counter c -> c
  | m -> invalid_arg (Printf.sprintf "metric %s is a %s, not a counter" name (kind_name m))

let gauge name =
  match register name (fun () -> Gauge { g = 0.0 }) with
  | Gauge g -> g
  | m -> invalid_arg (Printf.sprintf "metric %s is a %s, not a gauge" name (kind_name m))

let fresh_histogram () =
  {
    count = 0;
    sum = 0.0;
    vmin = Float.infinity;
    vmax = Float.neg_infinity;
    buckets = Array.make n_buckets 0;
  }

let histogram name =
  match register name (fun () -> Histogram (fresh_histogram ())) with
  | Histogram h -> h
  | m ->
    invalid_arg (Printf.sprintf "metric %s is a %s, not a histogram" name (kind_name m))

let incr ?(by = 1) c = Mutex.protect mu (fun () -> c.c <- c.c + by)
let value c = c.c
let set g x = Mutex.protect mu (fun () -> g.g <- x)
let gauge_value g = g.g

let bucket_index v =
  if not (v > 0.0) then 0
  else
    let e = int_of_float (Float.floor (Float.log2 v)) in
    let e = if e < emin then emin else if e > emax then emax else e in
    e - emin + 1

let bucket_bounds i =
  if i = 0 then (Float.neg_infinity, 0.0)
  else (Float.pow 2.0 (float_of_int (emin + i - 1)), Float.pow 2.0 (float_of_int (emin + i)))

let observe h v =
  Mutex.protect mu (fun () ->
      h.count <- h.count + 1;
      h.sum <- h.sum +. v;
      if v < h.vmin then h.vmin <- v;
      if v > h.vmax then h.vmax <- v;
      let i = bucket_index v in
      h.buckets.(i) <- h.buckets.(i) + 1)

let observe_int h n = observe h (float_of_int n)
let histogram_count h = h.count
let histogram_sum h = h.sum

let reset () =
  Mutex.protect mu (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> c.c <- 0
          | Gauge g -> g.g <- 0.0
          | Histogram h ->
            h.count <- 0;
            h.sum <- 0.0;
            h.vmin <- Float.infinity;
            h.vmax <- Float.neg_infinity;
            Array.fill h.buckets 0 n_buckets 0)
        registry)

let histogram_json h =
  let buckets = ref [] in
  for i = n_buckets - 1 downto 0 do
    if h.buckets.(i) > 0 then begin
      let lo, hi = bucket_bounds i in
      buckets :=
        Json.Obj
          [
            ("lo", if Float.is_finite lo then Json.Float lo else Json.Null);
            ("hi", Json.Float hi);
            ("n", Json.Int h.buckets.(i));
          ]
        :: !buckets
    end
  done;
  Json.Obj
    [
      ("type", Json.Str "histogram");
      ("count", Json.Int h.count);
      ("sum", Json.Float h.sum);
      ("mean", Json.Float (if h.count = 0 then 0.0 else h.sum /. float_of_int h.count));
      ("min", if h.count = 0 then Json.Null else Json.Float h.vmin);
      ("max", if h.count = 0 then Json.Null else Json.Float h.vmax);
      ("buckets", Json.List !buckets);
    ]

let snapshot_json ?(counters = []) () =
  let metrics =
    Hashtbl.fold
      (fun name m acc ->
        let j =
          match m with
          | Counter c -> Json.Int c.c
          | Gauge g -> Json.Float g.g
          | Histogram h -> histogram_json h
        in
        (name, j) :: acc)
      registry
      (List.map (fun (name, n) -> (name, Json.Int n)) counters)
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let phase (kind, count, ns) =
    (kind, Json.Obj [ ("total_s", Json.Float (float_of_int ns /. 1e9)); ("count", Json.Int count) ])
  in
  Json.Obj [ ("metrics", Json.Obj metrics); ("phases", Json.Obj (List.map phase (Timeline.totals ()))) ]
