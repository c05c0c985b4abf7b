(* Pre-generated deterministic KV request streams: the same logical
   request sequence (operation AND open-loop arrival time) replayable
   against different schemes, so per-request latencies are comparable
   across runs.

   Arrival times are materialised as absolute schedule offsets: request
   [i] of a stream is due at [arrival i] ticks after the stream starts.
   An open-loop worker that falls behind does not stretch the schedule —
   queueing delay lands in the measured latency instead, which is what
   turns a reclamation pause into a visible p999 spike. *)

type t = {
  spec : Kv_spec.t;
  streams : Kv_spec.op array array;  (* ops.(pid).(i) *)
  arrivals : int array array;  (* due time of request i, ticks from start *)
}

let make spec ~n_processes ~ops_per_process ~seed =
  if n_processes <= 0 then invalid_arg "Kv_gen.make: n_processes";
  if ops_per_process <= 0 then
    invalid_arg "Kv_gen.make: ops_per_process must be positive";
  let master = Qs_util.Prng.create ~seed in
  let streams =
    Array.init n_processes (fun _ ->
        let prng = Qs_util.Prng.split master in
        Array.init ops_per_process (fun _ -> Kv_spec.pick prng spec))
  in
  let arrivals =
    Array.init n_processes (fun _ ->
        let due = ref 0 in
        Array.init ops_per_process (fun i ->
            due := !due + Kv_spec.gap spec ~i;
            !due))
  in
  { spec; streams; arrivals }

let spec t = t.spec

let stream t ~pid = t.streams.(pid)

(* Cyclic access: workers that outlive their pre-generated stream wrap
   around, keeping the sequence deterministic without bounding the run. *)
let op t ~pid ~i =
  let s = t.streams.(pid) in
  s.(i mod Array.length s)

(* Due time of request [i], extended periodically past the stream end:
   wrap k adds k times the full stream duration. *)
let arrival t ~pid ~i =
  let a = t.arrivals.(pid) in
  let n = Array.length a in
  let span = a.(n - 1) in
  (i / n * span) + a.(i mod n)

let length t = Array.length t.streams.(0)

let n_processes t = Array.length t.streams
