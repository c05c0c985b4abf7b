(* Adversarial schedule exploration over the simulator.

   One [case] fully determines one run: data structure, scheme, workload
   shape, scheduling strategy, fault plan and seed. [run_one] translates it
   into a [Sim_exp.setup], runs the worker phase through [Sim_exp.measure]
   (the one simulator loop) and classifies the result with four oracles,
   on every case whatever its strategy or faults — the arena's node-state
   oracle (use-after-free, double free), memory exhaustion, per-key
   linearizability of the operation history [Sim_exp] records (operations
   a crash or a neutralization cut short are pending), and, on a run that
   passes those, the teardown's leak check. A failing case can be
   [shrink]'d to a smaller one with the same verdict class and round-tripped
   through a one-line repro file, so every CI failure is replayable from the
   artifact alone. *)

open Qs_sim
module Spec = Qs_workload.Spec

type strategy =
  | Fair
  | Pct of { depth : int }
  | Targeted of {
      victim : int;
      hook : Qs_intf.Runtime_intf.hook;
      skip : int;
      stall : int;
    }

type case = {
  ds : Cset.kind;
  scheme : Qs_smr.Scheme.kind;
  n_processes : int;
  key_range : int;
  update_pct : int;
  ops_per_proc : int;  (** per-process operation budget *)
  duration : int;  (** virtual-time budget; whichever bound hits first *)
  capacity : int;  (** arena capacity; 0 = unbounded *)
  switch : int;  (** QSense C; 0 = smallest legal (Property 4) *)
  evict : int;  (** QSense eviction timeout dt (§5.2); 0 = eviction off *)
  bags : int;  (** limbo bag capacity; values below 1 run as 1 *)
  strategy : strategy;
  faults : Scheduler.fault list;
  seed : int;
}

let default_case ~ds ~scheme ~seed =
  { ds;
    scheme;
    n_processes = 4;
    key_range = 32;
    update_pct = 50;
    ops_per_proc = 150;
    duration = 400_000;
    capacity = 0;
    switch = 48;
    evict = 0;
    bags = 64;
    strategy = Fair;
    faults = [];
    seed }

type verdict =
  | Pass
  | Uaf of int
  | Double_free of int
  | Oom of int
  | Not_linearizable of int
  | Worker_exn of string
  | Leaked of int

type outcome = {
  verdict : verdict;
  ops : int;
  steps : int;
  stats : Qs_smr.Smr_intf.stats;
}

let verdict_class = function
  | Pass -> 0
  | Uaf _ -> 1
  | Double_free _ -> 2
  | Oom _ -> 3
  | Not_linearizable _ -> 4
  | Worker_exn _ -> 5
  | Leaked _ -> 6

let same_class a b = verdict_class a = verdict_class b

let verdict_to_string = function
  | Pass -> "pass"
  | Uaf n -> Printf.sprintf "uaf:%d" n
  | Double_free n -> Printf.sprintf "double-free:%d" n
  | Oom t -> Printf.sprintf "oom:%d" t
  | Not_linearizable k -> Printf.sprintf "not-linearizable:%d" k
  | Worker_exn s -> "worker-exn:" ^ s
  | Leaked n -> Printf.sprintf "leak:%d" n

(* --- serialization: one "k=v" line per case ----------------------------- *)

let hook_to_string : Qs_intf.Runtime_intf.hook -> string = function
  | Hook_retire -> "retire"
  | Hook_scan -> "scan"
  | Hook_quiesce -> "quiesce"

let hook_of_string : string -> Qs_intf.Runtime_intf.hook option = function
  | "retire" -> Some Hook_retire
  | "scan" -> Some Hook_scan
  | "quiesce" -> Some Hook_quiesce
  | _ -> None

let strategy_to_string = function
  | Fair -> "fair"
  | Pct { depth } -> Printf.sprintf "pct:%d" depth
  | Targeted { victim; hook; skip; stall } ->
    Printf.sprintf "tgt:%d:%s:%d:%d" victim (hook_to_string hook) skip stall

let strategy_of_string s =
  match String.split_on_char ':' s with
  | [ "fair" ] -> Some Fair
  | [ "pct"; d ] -> Option.map (fun depth -> Pct { depth }) (int_of_string_opt d)
  | [ "tgt"; v; h; sk; st ] -> (
    match (int_of_string_opt v, hook_of_string h, int_of_string_opt sk, int_of_string_opt st) with
    | Some victim, Some hook, Some skip, Some stall ->
      Some (Targeted { victim; hook; skip; stall })
    | _ -> None)
  | _ -> None

let fault_to_string : Scheduler.fault -> string = function
  | Stall_at { pid; at; ticks } -> Printf.sprintf "stall:%d:%d:%d" pid at ticks
  | Crash_at { pid; at } -> Printf.sprintf "crash:%d:%d" pid at
  | Oversleep_spike { pid; at; extra } -> Printf.sprintf "spike:%d:%d:%d" pid at extra
  | Skew_burst { pid; at; until_; extra } ->
    Printf.sprintf "skew:%d:%d:%d:%d" pid at until_ extra
  | Churn_at { pid; at; ticks } -> Printf.sprintf "churn:%d:%d:%d" pid at ticks
  | Neutralize_at { pid; at } -> Printf.sprintf "neut:%d:%d" pid at

let fault_of_string s : Scheduler.fault option =
  match String.split_on_char ':' s with
  | [] -> None
  | tag :: args -> (
    match (tag, List.map int_of_string_opt args) with
    | "stall", [ Some pid; Some at; Some ticks ] -> Some (Stall_at { pid; at; ticks })
    | "crash", [ Some pid; Some at ] -> Some (Crash_at { pid; at })
    | "spike", [ Some pid; Some at; Some extra ] ->
      Some (Oversleep_spike { pid; at; extra })
    | "skew", [ Some pid; Some at; Some until_; Some extra ] ->
      Some (Skew_burst { pid; at; until_; extra })
    | "churn", [ Some pid; Some at; Some ticks ] -> Some (Churn_at { pid; at; ticks })
    | "neut", [ Some pid; Some at ] -> Some (Neutralize_at { pid; at })
    | _ -> None)

let faults_to_string = function
  | [] -> "-"
  | fs -> String.concat "," (List.map fault_to_string fs)

let faults_of_string = function
  | "-" -> Some []
  | s ->
    let parts = String.split_on_char ',' s in
    let fs = List.filter_map fault_of_string parts in
    if List.length fs = List.length parts then Some fs else None

let to_string c =
  Printf.sprintf
    "ds=%s scheme=%s n=%d keys=%d upd=%d ops=%d dur=%d cap=%d switch=%d evict=%d \
     bags=%d strat=%s faults=%s seed=%d"
    (Cset.kind_to_string c.ds)
    (Qs_smr.Scheme.to_string c.scheme)
    c.n_processes c.key_range c.update_pct c.ops_per_proc c.duration c.capacity
    c.switch c.evict c.bags
    (strategy_to_string c.strategy)
    (faults_to_string c.faults)
    c.seed

let of_string line : (case, string) result =
  let fields =
    List.filter_map
      (fun tok ->
        match String.index_opt tok '=' with
        | None -> None
        | Some i ->
          Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1)))
      (String.split_on_char ' ' (String.trim line))
  in
  let find k = List.assoc_opt k fields in
  let int_field k = Option.bind (find k) int_of_string_opt in
  let ( let* ) = Option.bind in
  let kinds =
    let* ds = Option.bind (find "ds") Cset.kind_of_string in
    let* scheme = Option.bind (find "scheme") Qs_smr.Scheme.of_string in
    let* strategy = Option.bind (find "strat") strategy_of_string in
    let* faults = Option.bind (find "faults") faults_of_string in
    Some (ds, scheme, strategy, faults)
  in
  let case (ds, scheme, strategy, faults) =
    let* n_processes = int_field "n" in
    let* key_range = int_field "keys" in
    let* update_pct = int_field "upd" in
    let* ops_per_proc = int_field "ops" in
    let* duration = int_field "dur" in
    let* capacity = int_field "cap" in
    let* switch = int_field "switch" in
    let* evict = int_field "evict" in
    let* bags = int_field "bags" in
    let* seed = int_field "seed" in
    Some
      { ds;
        scheme;
        n_processes;
        key_range;
        update_pct;
        ops_per_proc;
        duration;
        capacity;
        switch;
        evict;
        bags;
        strategy;
        faults;
        seed }
  in
  match kinds with
  | None -> Error (Printf.sprintf "explorer case: bad ds/scheme/strat/faults in %S" line)
  | Some k -> (
    match case k with
    | Some c -> Ok c
    | None -> Error (Printf.sprintf "explorer case: bad numeric field in %S" line))

(* --- fault-plan generation ---------------------------------------------- *)

type fault_level =
  | No_faults
  | Stalls
  | Victim_stall
  | Chaos
  | Churn
  | Neutralize

let fault_level_to_string = function
  | No_faults -> "none"
  | Stalls -> "stalls"
  | Victim_stall -> "victim-stall"
  | Chaos -> "chaos"
  | Churn -> "churn"
  | Neutralize -> "neutralize"

(* A deterministic fault plan for the given level; everything is drawn from
   [seed] so the plan is reproducible from the case line alone (the plan is
   expanded into the case's explicit fault list, never re-derived). *)
let plan level ~n ~duration ~seed : Scheduler.fault list =
  let prng = Qs_util.Prng.create ~seed:(seed + 0x5EED) in
  let pid () = Qs_util.Prng.int prng n in
  let at () = duration / 10 + Qs_util.Prng.int prng (max 1 (duration / 2)) in
  let stall () =
    Scheduler.Stall_at
      { pid = pid (); at = at (); ticks = duration / 8 + Qs_util.Prng.int prng (duration / 4) }
  in
  match level with
  | No_faults -> []
  | Stalls ->
    List.init 3 (fun _ -> stall ())
  | Victim_stall ->
    (* the paper's robustness scenario: one process freezes early and for
       (effectively) the rest of the run *)
    [ Scheduler.Stall_at { pid = n - 1; at = duration / 8; ticks = 4 * duration } ]
  | Chaos ->
    [ stall ();
      stall ();
      Scheduler.Oversleep_spike { pid = pid (); at = at (); extra = 2_000 + Qs_util.Prng.int prng 4_000 };
      Scheduler.Skew_burst
        { pid = pid (); at = at (); until_ = duration; extra = 500 + Qs_util.Prng.int prng 1_000 };
      Scheduler.Crash_at { pid = pid (); at = at () } ]
  | Churn ->
    (* dynamic membership: two processes leave and rejoin mid-run (one while
       a third is stalled, so its hazards must survive the membership
       change), exercising unregister / orphan adoption / slot reuse. The
       adopted-node UAF is the failure class this level hunts. *)
    [ Scheduler.Churn_at { pid = 1 mod n; at = duration / 6; ticks = duration / 8 };
      Scheduler.Churn_at
        { pid = n - 1;
          at = duration / 3;
          ticks = duration / 6 + Qs_util.Prng.int prng (max 1 (duration / 8)) };
      stall () ]
  | Neutralize ->
    (* rival-scheme delivery: restart signals land mid-operation (the
       victim's in-flight op is discontinued and retried, and stays in the
       history as pending), plus one long stall so a pinned laggard exists
       for schemes that neutralize on their own (DEBRA+). Hunts the
       restart-then-double-free, the unwind-path leak, and a restarted
       operation that applies twice. *)
    [ Scheduler.Neutralize_at { pid = pid (); at = at () };
      Scheduler.Neutralize_at { pid = pid (); at = at () };
      stall () ]

(* --- the runner --------------------------------------------------------- *)

(* The explorer's cost model: frequent long stalls open the clock gaps
   that let one process race far ahead of another. *)
let stall_cost = { Scheduler.default_cost with stall_prob = 0.05; stall_max = 600 }

let scheduler_strategy (c : case) : Scheduler.strategy =
  match c.strategy with
  | Fair -> Scheduler.Fair
  | Pct { depth } ->
    (* PCT gets its own stream derived from the case seed, so the same
       memory-timing seed is explored under a schedule that varies with it *)
    Scheduler.Pct { depth; seed = (c.seed * 7_919) + 13 }
  | Targeted { victim; hook; skip; stall } ->
    Scheduler.Targeted { victim; hook; skip; stall }

let workload_of c = Spec.make ~key_range:c.key_range ~update_pct:c.update_pct

(* A case is one {!Sim_exp} run at the explorer's operating point: eager
   quiescence and scans (Q = 8, R = 2) so reclamation runs often within a
   short case, and for schemes without roosters a vacuous age check (T =
   epsilon = 0), the adversarial setting under which fenced HP must still
   be safe and unfenced HP is not. *)
let setup_of ?sink ?history (c : case) : Sim_exp.setup =
  let needs_roosters = Qs_smr.Scheme.needs_roosters c.scheme in
  { (Sim_exp.default_setup ~ds:c.ds ~scheme:c.scheme ~n_processes:c.n_processes
       ~workload:(workload_of c))
    with
    duration = c.duration;
    ops_limit = Some c.ops_per_proc;
    seed = c.seed;
    capacity = (if c.capacity > 0 then Some c.capacity else None);
    faults = c.faults;
    sink;
    history;
    sched_tweak =
      (fun cfg -> { cfg with cost = stall_cost; strategy = scheduler_strategy c });
    smr_tweak =
      (fun cfg ->
        { cfg with
          quiescence_threshold = 8;
          scan_threshold = 2;
          rooster_interval = (if needs_roosters then cfg.rooster_interval else 0);
          epsilon = (if needs_roosters then cfg.epsilon else 0);
          switch_threshold = c.switch;
          eviction_timeout = (if c.evict > 0 then Some c.evict else None);
          bag_capacity = c.bags }) }

let run_one ?sink (c : case) : outcome =
  let history = Qs_verify.History.create ~n:c.n_processes in
  (* the sink sees the worker phase only, not the leak check's teardown *)
  let tracing = ref true in
  let sink =
    Option.map
      (fun (s : Qs_intf.Runtime_intf.sink) ->
        { Qs_intf.Runtime_intf.record =
            (fun ~pid ~time ~ev ~a ~b ->
              if !tracing then s.record ~pid ~time ~ev ~a ~b) })
      sink
  in
  let m = Sim_exp.measure (setup_of ?sink ~history c) in
  let report = m.report in
  (* The memory-safety oracles outrank everything: a UAF explains any
     downstream anomaly. *)
  let verdict =
    if m.violations > 0 then Uaf m.violations
    else if report.double_frees > 0 then Double_free report.double_frees
    else
      match (m.failures, m.failed_at) with
      | (pid, e) :: _, _ ->
        Worker_exn (Printf.sprintf "pid%d:%s" pid (Printexc.to_string e))
      | [], Some tm -> Oom tm
      | [], None -> (
        match
          Qs_verify.Lin_check.check_set
            ~initial:(Spec.initial_keys (workload_of c))
            (Qs_verify.History.entries history)
        with
        | Qs_verify.Lin_check.Violation k -> Not_linearizable k
        | Ok -> (
          (* a crashed operation may strand the nodes of one key *)
          let crashes =
            List.length
              (List.filter
                 (function Scheduler.Crash_at _ -> true | _ -> false)
                 c.faults)
          in
          tracing := false;
          match (m.teardown ()).leak_check with
          | `Leaked n when n > crashes * Cset.nodes_per_key_of c.ds -> Leaked n
          | `Ok | `Leaked _ | `Skipped -> Pass))
  in
  { verdict; ops = m.ops_total; steps = m.steps; stats = report.smr }

(* --- counterexample shrinking ------------------------------------------- *)

(* Drop the parts of a case that stop making sense with fewer processes. *)
let restrict_procs c n' =
  let ok_pid p = p < n' in
  let faults =
    List.filter
      (fun (f : Scheduler.fault) ->
        match f with
        | Stall_at { pid; _ } | Crash_at { pid; _ } | Oversleep_spike { pid; _ }
        | Skew_burst { pid; _ } | Churn_at { pid; _ } | Neutralize_at { pid; _ } ->
          ok_pid pid)
      c.faults
  in
  let strategy =
    match c.strategy with
    | Targeted { victim; _ } when not (ok_pid victim) -> Fair
    | s -> s
  in
  { c with n_processes = n'; faults; strategy }

let shrink_candidates c =
  let cands = ref [] in
  let add c' = if c' <> c then cands := c' :: !cands in
  if c.ops_per_proc > 20 then add { c with ops_per_proc = max 20 (c.ops_per_proc / 2) };
  if c.ops_per_proc > 20 then add { c with ops_per_proc = max 20 (c.ops_per_proc * 3 / 4) };
  if c.duration > 50_000 then add { c with duration = max 50_000 (c.duration / 2) };
  if c.key_range > 4 then add { c with key_range = max 4 (c.key_range / 2) };
  if c.n_processes > 2 then add (restrict_procs c (c.n_processes - 1));
  (match c.faults with
  | [] -> ()
  | [ _ ] -> add { c with faults = [] }
  | _ :: rest ->
    add { c with faults = rest };
    add { c with faults = [] });
  (match c.strategy with
  | Pct { depth } when depth > 1 -> add { c with strategy = Pct { depth = depth - 1 } }
  | Pct _ -> add { c with strategy = Fair }
  | _ -> ());
  List.rev !cands

(* Greedy shrink: accept any candidate that reproduces the same verdict
   class, iterate to a fixpoint, spending at most [budget] runs. Returns the
   smallest accepted case and the number of runs spent. *)
let shrink ?(budget = 40) (c : case) (v : verdict) : case * int =
  let spent = ref 0 in
  let current = ref c in
  let improved = ref true in
  while !improved && !spent < budget do
    improved := false;
    let rec try_cands = function
      | [] -> ()
      | cand :: rest ->
        if !spent < budget then begin
          incr spent;
          if same_class (run_one cand).verdict v then begin
            current := cand;
            improved := true
          end
          else try_cands rest
        end
    in
    try_cands (shrink_candidates !current)
  done;
  (!current, !spent)

(* --- exploration + repro/corpus files ----------------------------------- *)

let seeds ~base ~count = List.init count (fun i -> base + (i * 131))

let explore cases =
  List.filter_map
    (fun c ->
      let o = run_one c in
      if same_class o.verdict Pass then None else Some (c, o))
    cases

(* --- case families ------------------------------------------------------- *)

(* The standing checks of test/test_explorer.ml, which alone judges them;
   [explore.exe profile] and [grow] build on them and [fingerprint] digests
   them. *)

let unsafe_hp_case seed =
  { (default_case ~ds:Cset.List ~scheme:Qs_smr.Scheme.Unsafe_hp ~seed) with
    key_range = 8;
    ops_per_proc = 4_000;
    duration = 10_000_000 }

let leaky_case seed =
  { (default_case ~ds:Cset.List ~scheme:Qs_smr.Scheme.None_ ~seed) with
    capacity = 256;
    ops_per_proc = 4_000;
    duration = 10_000_000 }

let stall_case ~scheme ~seed =
  { (default_case ~ds:Cset.List ~scheme ~seed) with
    ops_per_proc = 4_000;
    duration = 2_500_000;
    capacity = 300;
    faults = [ Scheduler.Stall_at { pid = 3; at = 100_000; ticks = 1_500_000 } ] }

let with_plan level (c : case) =
  { c with faults = plan level ~n:c.n_processes ~duration:c.duration ~seed:c.seed }

let sweep_cases ~seeds:count =
  List.concat_map
    (fun scheme ->
      List.concat_map
        (fun seed ->
          let dc = default_case ~ds:Cset.List ~scheme ~seed in
          (* poison deliveries discontinue whatever operation is in flight
             under every scheme, not just DEBRA+: the unwind handlers in the
             structures must hold across the zoo *)
          [ dc; { dc with strategy = Pct { depth = 3 } } ]
          @ List.map (fun level -> with_plan level dc) [ Stalls; Chaos; Neutralize ])
        (seeds ~base:11 ~count))
    Qs_smr.Scheme.[ Hp; Cadence; Qsense; Debra_plus; Hyaline ]

(* The failure class hunted is the adopted-node UAF: an adopter freeing an
   orphan that a still-running (evicted or stalled) process protects. *)
let churn_cases ~seeds:count =
  List.concat_map
    (fun scheme ->
      List.map
        (fun seed -> with_plan Churn (default_case ~ds:Cset.List ~scheme ~seed))
        (seeds ~base:29 ~count))
    Qs_smr.Scheme.[ Qsbr; Ebr; Hp; Cadence; Qsense; Debra_plus; Hyaline ]

let save_repro path (c : case) (o : outcome) =
  let oc = open_out path in
  Printf.fprintf oc
    "# explorer repro: replay with Explorer.run_one (load_repro %S)\n\
     # verdict: %s  ops: %d  steps: %d\n\
     %s\n"
    path (verdict_to_string o.verdict) o.ops o.steps (to_string c);
  close_out oc

let parse_lines lines =
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then None
      else
        match of_string line with
        | Ok c -> Some c
        | Error msg -> failwith msg)
    lines

let load_corpus path =
  parse_lines (In_channel.with_open_text path In_channel.input_lines)

let load_repro path =
  match load_corpus path with
  | c :: _ -> c
  | [] -> failwith (Printf.sprintf "explorer repro %s: no case line" path)
