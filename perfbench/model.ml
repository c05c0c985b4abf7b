(* The correctness gate's sequential model of the KV service: a plain
   [Hashtbl] set. With one worker the service must agree with it exactly —
   the number of [true] answers per request kind, the sum of scan counts,
   and the final contents. *)

module Ksp = Qs_workload.Kv_spec

type t = (int, unit) Hashtbl.t

(* Per-kind answer tally, indexed by {!Ksp.kind_index}: gets/puts/dels
   that returned [true], and the total of all scan counts. *)
type tally = int array

let new_tally () : tally = Array.make Ksp.n_kinds 0

let create prefill : t =
  let m = Hashtbl.create (2 * List.length prefill + 16) in
  List.iter (fun k -> Hashtbl.replace m k ()) prefill;
  m

let apply (m : t) (tally : tally) op =
  let bump k = tally.(k) <- tally.(k) + 1 in
  match op with
  | Ksp.Get k -> if Hashtbl.mem m k then bump 0
  | Ksp.Put k ->
    if not (Hashtbl.mem m k) then begin
      Hashtbl.replace m k ();
      bump 1
    end
  | Ksp.Del k ->
    if Hashtbl.mem m k then begin
      Hashtbl.remove m k;
      bump 2
    end
  | Ksp.Scan (lo, hi) ->
    for k = lo to hi do
      if Hashtbl.mem m k then bump 3
    done

let contents (m : t) =
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) m [])

(* Replay [n] requests ([op i] for i in [0, n)) over the prefilled model. *)
let replay ~prefill ~op ~n =
  let m = create prefill in
  let tally = new_tally () in
  for i = 0 to n - 1 do
    apply m tally (op i)
  done;
  (tally, contents m)

(* How many answers disagree: per-kind tally differences plus the size of
   the symmetric difference of the final contents. 0 means the run
   matched the model exactly. *)
let disagreements ~expected:(et, ec) ~got:(gt, gc) =
  let tally_diff = ref 0 in
  Array.iteri (fun k e -> tally_diff := !tally_diff + abs (e - gt.(k))) et;
  let rec sym a b acc =
    match (a, b) with
    | [], rest | rest, [] -> acc + List.length rest
    | x :: a', y :: b' ->
      if x = y then sym a' b' acc
      else if x < y then sym a' b (acc + 1)
      else sym a b' (acc + 1)
  in
  !tally_diff + sym ec gc 0
