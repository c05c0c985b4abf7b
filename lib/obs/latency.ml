(* Online log-bucketed latency histograms.

   Geometry: values in [0, 32) land in unit-width buckets 0..31; for
   larger values the power-of-two range [2^e, 2^(e+1)) is split into 32
   equal sub-buckets, indexed by the 5 bits below the leading bit. The
   exponent range [5, 39] gives 32 + 35*32 = 1152 buckets covering up to
   2^40 (values beyond clamp to the last bucket) with ≤ 1/32 relative
   quantization error — enough for both simulator ticks and coarse ns.

   The recording path must allocate exactly 0 minor words (pinned by
   tests and bench), so no [ref] cells: loops that need an accumulator
   are tail-recursive top-level functions over flat int arrays. *)

let sub_bits = 5
let sub = 1 lsl sub_bits (* 32 *)
let max_exp = 39
let n_buckets = sub + ((max_exp - sub_bits + 1) * sub)

let rec ilog2_from v acc = if v <= 1 then acc else ilog2_from (v lsr 1) (acc + 1)

let bucket_of v =
  if v < sub then (if v < 0 then 0 else v)
  else begin
    let exp = ilog2_from v 0 in
    if exp > max_exp then n_buckets - 1
    else sub + ((exp - sub_bits) * sub) + ((v lsr (exp - sub_bits)) land (sub - 1))
  end

let lower_edge i =
  if i < sub then i
  else begin
    let g = (i - sub) / sub and s = (i - sub) mod sub in
    (sub + s) lsl g
  end

(* Exclusive upper edge of bucket [i] (lower edge of the next bucket). *)
let upper_edge i = if i >= n_buckets - 1 then max_int else lower_edge (i + 1)

type t = {
  counts : int array;
  mutable total : int;
  mutable vmax : int;
  mutable vsum : int;
}

let create () = { counts = Array.make n_buckets 0; total = 0; vmax = 0; vsum = 0 }

let reset t =
  Array.fill t.counts 0 n_buckets 0;
  t.total <- 0;
  t.vmax <- 0;
  t.vsum <- 0

let record t v =
  let b = bucket_of v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.total <- t.total + 1;
  t.vsum <- t.vsum + v;
  if v > t.vmax then t.vmax <- v

let count t = t.total
let max_value t = t.vmax
let sum t = t.vsum
let bucket_counts t = Array.copy t.counts

let merge_into ~dst src =
  for i = 0 to n_buckets - 1 do
    dst.counts.(i) <- dst.counts.(i) + src.counts.(i)
  done;
  dst.total <- dst.total + src.total;
  dst.vsum <- dst.vsum + src.vsum;
  if src.vmax > dst.vmax then dst.vmax <- src.vmax

let percentile_bucket t p = Qs_util.Buckets.cumulative_index t.counts ~p

let percentile t p =
  if t.total = 0 then (Qs_util.Buckets.cumulative_index [||] ~p : int)
  else begin
    let b = percentile_bucket t p in
    let hi = upper_edge b - 1 in
    if hi > t.vmax then t.vmax else hi
  end

let to_ascii t ~width =
  let idx = ref [] in
  for i = n_buckets - 1 downto 0 do
    if t.counts.(i) > 0 then idx := i :: !idx
  done;
  let idx = Array.of_list !idx in
  let labels =
    Qs_util.Buckets.distinct_labels
      (Array.map (fun i -> float_of_int (lower_edge i)) idx)
  in
  let counts = Array.map (fun i -> t.counts.(i)) idx in
  Qs_util.Buckets.ascii_rows ~labels ~counts ~width

(* ---- Experiment recorder ------------------------------------------- *)

type recorder = {
  n_processes : int;
  n_kinds : int;
  hists : t array; (* pid * n_kinds + kind *)
  k : int; (* top-K capacity per pid *)
  tk_start : int array; (* pid * k + j *)
  tk_dur : int array; (* 0 = empty slot *)
  tk_kind : int array;
  tk_min : int array; (* per-pid cached min of tk_dur *)
}

let recorder ~n_processes ~n_kinds ?(top_k = 128) () =
  if n_processes <= 0 then invalid_arg "Latency.recorder: n_processes";
  if n_kinds <= 0 then invalid_arg "Latency.recorder: n_kinds";
  if top_k <= 0 then invalid_arg "Latency.recorder: top_k";
  {
    n_processes;
    n_kinds;
    hists = Array.init (n_processes * n_kinds) (fun _ -> create ());
    k = top_k;
    tk_start = Array.make (n_processes * top_k) 0;
    tk_dur = Array.make (n_processes * top_k) 0;
    tk_kind = Array.make (n_processes * top_k) 0;
    tk_min = Array.make n_processes 0;
  }

let rec argmin_from durs off i k best_i best_v =
  if i >= k then best_i
  else if durs.(off + i) < best_v then
    argmin_from durs off (i + 1) k i durs.(off + i)
  else argmin_from durs off (i + 1) k best_i best_v

let rec min_from durs off i k acc =
  if i >= k then acc
  else min_from durs off (i + 1) k (if durs.(off + i) < acc then durs.(off + i) else acc)

let observe r ~pid ~kind ~start ~dur =
  record r.hists.((pid * r.n_kinds) + kind) dur;
  if dur > r.tk_min.(pid) then begin
    let off = pid * r.k in
    let j = argmin_from r.tk_dur off 1 r.k 0 r.tk_dur.(off) in
    r.tk_dur.(off + j) <- dur;
    r.tk_start.(off + j) <- start;
    r.tk_kind.(off + j) <- kind;
    r.tk_min.(pid) <- min_from r.tk_dur off 1 r.k r.tk_dur.(off)
  end

let merged r =
  let dst = create () in
  Array.iter (fun h -> merge_into ~dst h) r.hists;
  dst

let merged_kind r ~kind =
  let dst = create () in
  for pid = 0 to r.n_processes - 1 do
    merge_into ~dst r.hists.((pid * r.n_kinds) + kind)
  done;
  dst

type outlier = { o_pid : int; o_kind : int; o_start : int; o_dur : int }

let outliers r =
  let acc = ref [] in
  for pid = 0 to r.n_processes - 1 do
    let off = pid * r.k in
    for j = 0 to r.k - 1 do
      if r.tk_dur.(off + j) > 0 then
        acc :=
          {
            o_pid = pid;
            o_kind = r.tk_kind.(off + j);
            o_start = r.tk_start.(off + j);
            o_dur = r.tk_dur.(off + j);
          }
          :: !acc
    done
  done;
  List.sort (fun a b -> compare b.o_dur a.o_dur) !acc

let n_processes r = r.n_processes
let n_kinds r = r.n_kinds
