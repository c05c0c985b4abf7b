(* Estimators shared by every workload: the fast-end window throughput
   estimator, nearest-rank percentiles that carry their sample count, and
   the quiet-segment latency pool. Pure functions over plain arrays, so the tests can pin
   them on hand-built inputs. *)

(* Monotonic nanoseconds from bechamel's [@@noalloc] clock stub: no boxed
   float, no allocation, sub-microsecond resolution. *)
let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())

let median_float a =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then invalid_arg "Est.median_float: empty"
  else if n land 1 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let mean_float a =
  if Array.length a = 0 then invalid_arg "Est.mean_float: empty";
  Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* 1-based nearest rank, ceil (p/100 * n); the epsilon keeps float
   noise (99.9/100 * 10000 = 9990.000000000002) from adding one. *)
let rank p n =
  max 1 (min n (int_of_float (Float.ceil ((p /. 100. *. float_of_int n) -. 1e-9))))

(* Throughput over a fixed request sequence cut into many short equal
   windows. Host contention (other tenants on the same physical cores)
   only ever slows a window down, and comes in phases that can cover most
   of a run, so the estimate is the fast end of the windows: the rate that
   the fastest [fast_pct]% of them reach. That is the fastest window with
   fewer than 100 windows, and it ignores a single lucky window with more.
   The median and slowest windows are kept to show the spread. *)
type windows = {
  fast_mops : float;
  median_mops : float;
  worst_mops : float;
  n_windows : int;
}

let fast_pct = 1.

(* [durations_ns.(w)] is how long window [w] took to serve [reqs]
   requests. Requests per microsecond is Mops/s. *)
let windows ~reqs durations_ns =
  let n = Array.length durations_ns in
  if n = 0 then invalid_arg "Est.windows: no windows";
  let rates =
    Array.map
      (fun d -> float_of_int reqs /. (float_of_int (max 1 d) /. 1e3))
      durations_ns
  in
  Array.sort compare rates;
  { fast_mops = rates.(rank (100. -. fast_pct) n - 1);
    median_mops = median_float rates;
    worst_mops = rates.(0);
    n_windows = n }

(* Spread of the windows as a share of the fast end: how much slower the
   median window ran. *)
let window_spread w = 1. -. (w.median_mops /. w.fast_mops)

(* Wall time of a deterministic computation run several times, each
   repeat reading the clock at the same points of its work
   ([marks.(0)] at the start): the sum over slices of the fastest repeat
   of each slice. Contention only ever stretches a slice, so this is the
   best-window estimate for work that cannot be cut into independent
   windows. *)
let composite_ns = function
  | [] -> invalid_arg "Est.composite_ns: no repeats"
  | first :: _ as repeats ->
    let total = ref 0 in
    for j = 1 to Array.length first - 1 do
      total :=
        !total
        + List.fold_left
            (fun acc m -> min acc (m.(j) - m.(j - 1)))
            max_int repeats
    done;
    !total

(* Nearest-rank percentile over sorted samples. [beyond] counts the
   samples strictly after the reported rank: a tail percentile is only
   meaningful when at least [min_beyond] samples lie past it (otherwise
   "p999" of a few hundred requests is just the maximum). *)
type pct = { value : int; samples : int; beyond : int }

let min_beyond = 10

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Est.percentile: no samples";
  if p <= 0. || p > 100. then invalid_arg "Est.percentile: p out of range";
  { value = sorted.(rank p n - 1); samples = n; beyond = n - rank p n }

let tail_ok pct = pct.beyond >= min_beyond

(* The quietest [keep] of the sorted latency segments laid end to end in
   [buf], each [len] samples long, pooled and sorted: host contention
   shifts a whole segment's distribution, so the segments with the lowest
   median are the least disturbed, and pooling them keeps many samples
   beyond the tail percentiles. *)
let quiet_pool ~keep ~len buf =
  let n = if len <= 0 then 0 else Array.length buf / len in
  if n = 0 then invalid_arg "Est.quiet_pool: no segments";
  let median s = buf.((s * len) + rank 50. len - 1) in
  let order = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare (median a) (median b)) order;
  let keep = max 1 (min keep n) in
  let pool = Array.make (keep * len) 0 in
  Array.iteri
    (fun j s -> if j < keep then Array.blit buf (s * len) pool (j * len) len)
    order;
  Array.sort Int.compare pool;
  pool

(* Smallest sample count for which percentile [p] keeps [min_beyond]
   samples past it. *)
let samples_needed p =
  let n = ref min_beyond in
  while !n - rank p !n < min_beyond do incr n done;
  !n
