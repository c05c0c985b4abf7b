(* Unit tests of the reclamation schemes themselves, driven directly
   (no data structure): protection semantics, epoch turnover, deferred
   reclamation aging, the QSense mode switch, and the eviction extension. *)

open Qs_sim
module R = Sim_runtime

type fake = { id : int; mutable freed : int }

module N = struct
  type t = fake

  let id n = n.id
end

module Hp = Qs_smr.Hazard_pointers.Make (R) (N)
module Qsbr = Qs_smr.Qsbr.Make (R) (N)
module Cadence = Qs_smr.Cadence.Make (R) (N)
module Qsense = Qs_smr.Qsense.Make (R) (N)
module Ebr = Qs_smr.Ebr.Make (R) (N)
module Debra = Qs_smr.Debra_plus.Make (R) (N)

let dummy = { id = -1; freed = 0 }
let mk id = { id; freed = 0 }

let cfg ?(n = 2) ?(k = 2) ?(q = 4) ?(r = 4) ?(t = 1_000) ?(eps = 100) ?(c = 0)
    ?eviction ?(bag_cap = 64) () =
  { Qs_smr.Smr_intf.n_processes = n;
    hp_per_process = k;
    quiescence_threshold = q;
    (* These unit tests pin exact scan timing (e.g. "retire #r scans and
       frees"). The default bag capacity (64) exceeds every limbo depth
       these tests reach, so the open-block per-node filter decides each
       node on its own, exactly as an element-wise filter would. *)
    scan_threshold = r;
    rooster_interval = t;
    epsilon = eps;
    switch_threshold = c;
    removes_per_op_max = 1;
    eviction_timeout = eviction;
    bag_capacity = bag_cap }

let sched ?(n_cores = 2) ?(seed = 3) ?(rooster = Some 1_000) () =
  Scheduler.create
    { (Scheduler.default_config ~n_cores ~seed) with rooster_interval = rooster }

let track_frees freed_log data count =
  for i = 0 to count - 1 do
    let n = data.(i) in
    n.freed <- n.freed + 1;
    freed_log := n.id :: !freed_log
  done

(* --- hazard pointers ---------------------------------------------------- *)

let test_hp_protection () =
  let s = sched () in
  let freed = ref [] in
  let t = Hp.create (cfg ~r:2 ()) ~dummy ~free_bulk:(track_frees freed) in
  let h0 = Hp.register t ~pid:0 in
  let h1 = Hp.register t ~pid:1 in
  Scheduler.exec s ~pid:1 (fun () ->
      (* process 1 protects node 1 with a fenced hazard pointer *)
      Hp.assign_hp h1 ~slot:0 (mk 99) |> ignore);
  let protected_node = mk 1 in
  Scheduler.exec s ~pid:1 (fun () -> Hp.assign_hp h1 ~slot:0 protected_node);
  Scheduler.exec s ~pid:0 (fun () ->
      Hp.retire h0 protected_node;
      Hp.retire h0 (mk 2);
      Hp.retire h0 (mk 3));
  (* scans ran (threshold 2); node 1 must have survived *)
  Alcotest.(check bool) "unprotected freed" true (List.mem 2 !freed);
  Alcotest.(check bool) "protected kept" true (not (List.mem 1 !freed));
  Alcotest.(check int) "retired_count" 1 (Hp.retired_count t);
  (* Release protection; next scan frees it. Clearing is an unfenced store
     (staleness only delays reclamation), so fence to make it visible. *)
  Scheduler.exec s ~pid:1 (fun () ->
      Hp.clear_hps h1;
      R.fence ());
  Scheduler.exec s ~pid:0 (fun () ->
      Hp.retire h0 (mk 4);
      Hp.retire h0 (mk 5));
  Alcotest.(check bool) "freed after release" true (List.mem 1 !freed)

let test_hp_flush () =
  let s = sched () in
  let freed = ref [] in
  let t = Hp.create (cfg ~r:100 ()) ~dummy ~free_bulk:(track_frees freed) in
  let h0 = Hp.register t ~pid:0 in
  Scheduler.exec s ~pid:0 (fun () ->
      Hp.retire h0 (mk 1);
      Hp.retire h0 (mk 2);
      Hp.flush h0);
  Alcotest.(check int) "flush frees everything" 2 (List.length !freed);
  Alcotest.(check int) "nothing retired" 0 (Hp.retired_count t)

(* --- Algorithm 2, re-enacted deterministically --------------------------- *)

module Unsafe = Qs_smr.Unsafe_hp.Make (R) (N)

(* The paper's Algorithm 2: reader PR publishes a hazard pointer to n and
   re-validates, but without a fence the publication sits in PR's store
   buffer; deleter PD retires n and scans, misses the invisible hazard
   pointer, and frees n while PR is about to use it. *)
let test_algorithm2_unfenced () =
  let s =
    Scheduler.create
      { (Scheduler.default_config ~n_cores:2 ~seed:1) with
        rooster_interval = None (* no roosters: nothing flushes PR's buffer *) }
  in
  let freed = ref [] in
  let t = Unsafe.create (cfg ~r:1 ()) ~dummy ~free_bulk:(track_frees freed) in
  let pr = Unsafe.register t ~pid:0 in
  let pd = Unsafe.register t ~pid:1 in
  let n = mk 1 in
  let used_after_free = ref false in
  (* PR: R1 read pointer; R2 assign HP (store, buffered); R4 recheck; R5 use *)
  Scheduler.spawn s ~pid:0 (fun () ->
      Unsafe.assign_hp pr ~slot:0 n;
      (* R4: the recheck "succeeds" — n is still valid at this instant *)
      R.charge 1_000;
      R.yield () (* ...PR is preempted before R5; PD runs in the gap *);
      (* R5: use n *)
      if n.freed > 0 then used_after_free := true);
  (* PD: D1 remove n; D3 scan hazard pointers; D4 free n *)
  Scheduler.spawn s ~pid:1 (fun () ->
      R.charge 100;
      Unsafe.retire pd n (* scan_threshold = 1: retire scans and frees *));
  Scheduler.run_all s;
  Alcotest.(check bool) "PD freed n despite PR's hazard pointer" true
    (List.mem 1 !freed);
  Alcotest.(check bool) "PR used n after it was freed" true !used_after_free

(* Same interleaving with the fence: PR's hazard pointer is visible by the
   time PD scans, so n survives. *)
let test_algorithm2_fenced () =
  let s =
    Scheduler.create
      { (Scheduler.default_config ~n_cores:2 ~seed:1) with rooster_interval = None }
  in
  let freed = ref [] in
  let t = Hp.create (cfg ~r:1 ()) ~dummy ~free_bulk:(track_frees freed) in
  let pr = Hp.register t ~pid:0 in
  let pd = Hp.register t ~pid:1 in
  let n = mk 1 in
  Scheduler.spawn s ~pid:0 (fun () ->
      Hp.assign_hp pr ~slot:0 n (* includes the fence *);
      R.charge 1_000;
      R.yield ();
      assert (n.freed = 0));
  Scheduler.spawn s ~pid:1 (fun () ->
      R.charge 100;
      Hp.retire pd n);
  Scheduler.run_all s;
  Alcotest.(check (list (pair int reject))) "no failures" [] (Scheduler.failures s);
  Alcotest.(check bool) "n survived the scan" true (not (List.mem 1 !freed))

(* --- QSBR ---------------------------------------------------------------- *)

let test_qsbr_grace_period () =
  let s = sched () in
  let freed = ref [] in
  let t = Qsbr.create (cfg ~q:1 ()) ~dummy ~free_bulk:(track_frees freed) in
  let h0 = Qsbr.register t ~pid:0 in
  let h1 = Qsbr.register t ~pid:1 in
  Scheduler.exec s ~pid:0 (fun () -> Qsbr.retire h0 (mk 1));
  (* both processes must pass quiescent states before node 1 is freed *)
  let turn () =
    Scheduler.exec s ~pid:0 (fun () -> Qsbr.manage_state h0);
    Scheduler.exec s ~pid:1 (fun () -> Qsbr.manage_state h1)
  in
  turn ();
  Alcotest.(check (list int)) "not freed after one pass" [] !freed;
  (* a few more full turns let the epoch cycle back around *)
  turn ();
  turn ();
  turn ();
  turn ();
  Alcotest.(check (list int)) "freed after grace periods" [ 1 ] !freed

let test_qsbr_blocks_on_delay () =
  let s = sched () in
  let freed = ref [] in
  let t = Qsbr.create (cfg ~q:1 ()) ~dummy ~free_bulk:(track_frees freed) in
  let h0 = Qsbr.register t ~pid:0 in
  let _h1 = Qsbr.register t ~pid:1 in
  (* process 1 never declares quiescence: nothing is ever freed *)
  Scheduler.exec s ~pid:0 (fun () ->
      for i = 1 to 50 do
        Qsbr.retire h0 (mk i);
        Qsbr.manage_state h0
      done);
  Alcotest.(check (list int)) "blocked forever" [] !freed;
  Alcotest.(check int) "all retired" 50 (Qsbr.retired_count t)

(* --- EBR ------------------------------------------------------------------ *)

(* A process that is idle BETWEEN operations does not block EBR (its slot is
   unpinned) — unlike QSBR, where the same process blocks everything. *)
let test_ebr_tolerates_idle_process () =
  let s = sched () in
  let freed = ref [] in
  let t = Ebr.create (cfg ~q:1 ()) ~dummy ~free_bulk:(track_frees freed) in
  let h0 = Ebr.register t ~pid:0 in
  let _h1 = Ebr.register t ~pid:1 (* registered, never runs an op *) in
  Scheduler.exec s ~pid:0 (fun () ->
      for i = 1 to 50 do
        Ebr.manage_state h0;
        Ebr.retire h0 (mk i);
        Ebr.clear_hps h0
      done);
  Alcotest.(check bool) "reclaims despite idle process" true
    (List.length !freed > 30)

(* A process stalled INSIDE an operation (pinned) still blocks EBR — the
   residual weakness QSense's fallback path removes. *)
let test_ebr_blocks_mid_operation () =
  let s = sched () in
  let freed = ref [] in
  let t = Ebr.create (cfg ~q:1 ()) ~dummy ~free_bulk:(track_frees freed) in
  let h0 = Ebr.register t ~pid:0 in
  let h1 = Ebr.register t ~pid:1 in
  (* p1 enters an operation and stalls there *)
  Scheduler.exec s ~pid:1 (fun () -> Ebr.manage_state h1);
  Scheduler.exec s ~pid:0 (fun () ->
      for i = 1 to 50 do
        Ebr.manage_state h0;
        Ebr.retire h0 (mk i);
        Ebr.clear_hps h0
      done);
  let blocked_frees = List.length !freed in
  Alcotest.(check bool) "mostly blocked while p1 pinned" true (blocked_frees < 5);
  (* p1 finishes its operation; reclamation resumes *)
  Scheduler.exec s ~pid:1 (fun () -> Ebr.clear_hps h1);
  Scheduler.exec s ~pid:0 (fun () ->
      for i = 51 to 120 do
        Ebr.manage_state h0;
        Ebr.retire h0 (mk i);
        Ebr.clear_hps h0
      done);
  Alcotest.(check bool) "resumes after unpin" true
    (List.length !freed > blocked_frees + 30)

(* --- Cadence ------------------------------------------------------------- *)

let test_cadence_deferral () =
  let s = sched ~rooster:(Some 1_000) () in
  let freed = ref [] in
  let t = Cadence.create (cfg ~r:1 ~t:1_000 ~eps:100 ()) ~dummy ~free_bulk:(track_frees freed) in
  let h0 = Cadence.register t ~pid:0 in
  Scheduler.exec s ~pid:0 (fun () ->
      Cadence.retire h0 (mk 1);
      (* scans run on every retire, but node 1 is not old enough *)
      Cadence.retire h0 (mk 2);
      Alcotest.(check (list int)) "too young to free" [] !freed;
      (* age past T + epsilon *)
      Sim_runtime.charge 2_000;
      Cadence.retire h0 (mk 3);
      Alcotest.(check bool) "old nodes freed" true
        (List.mem 1 !freed && List.mem 2 !freed);
      Alcotest.(check bool) "young node kept" true (not (List.mem 3 !freed)))

let test_cadence_respects_hp () =
  let s = sched ~rooster:(Some 1_000) () in
  let freed = ref [] in
  let t = Cadence.create (cfg ~r:1 ~t:1_000 ~eps:100 ()) ~dummy ~free_bulk:(track_frees freed) in
  let h0 = Cadence.register t ~pid:0 in
  let h1 = Cadence.register t ~pid:1 in
  let n = mk 1 in
  (* process 1 protects n; its (unfenced) hazard pointer becomes visible
     once its rooster fires *)
  Scheduler.spawn s ~pid:1 (fun () ->
      Cadence.assign_hp h1 ~slot:0 n;
      Sim_runtime.charge 5_000);
  Scheduler.spawn s ~pid:0 (fun () ->
      Sim_runtime.charge 3_000;
      Cadence.retire h0 n;
      Sim_runtime.charge 3_000;
      Cadence.retire h0 (mk 2);
      Sim_runtime.charge 3_000;
      Cadence.retire h0 (mk 3));
  Scheduler.run_all s;
  Alcotest.(check bool) "protected node kept" true (not (List.mem 1 !freed));
  Alcotest.(check bool) "unprotected old node freed" true (List.mem 2 !freed)

(* --- QSense -------------------------------------------------------------- *)

let test_qsense_fallback_switch () =
  let s = sched ~rooster:(Some 1_000) () in
  let freed = ref [] in
  let t = Qsense.create (cfg ~q:2 ~r:2 ~c:5 ()) ~dummy ~free_bulk:(track_frees freed) in
  let h0 = Qsense.register t ~pid:0 in
  let _h1 = Qsense.register t ~pid:1 in
  (* process 1 is silent: quiescence is impossible; once process 0 has
     more than C=5 retired nodes it must switch to the fallback path *)
  Scheduler.exec s ~pid:0 (fun () ->
      for i = 1 to 20 do
        Qsense.retire h0 (mk i);
        Qsense.manage_state h0
      done;
      Alcotest.(check bool) "switched to fallback" true
        ((Qsense.stats t).mode = Qs_smr.Smr_intf.Fallback);
      Alcotest.(check bool) "switch counted" true
        ((Qsense.stats t).fallback_entries >= 1);
      (* in fallback mode, old unprotected nodes get freed despite the
         silent process *)
      Sim_runtime.charge 3_000;
      for i = 21 to 30 do
        Qsense.retire h0 (mk i)
      done;
      Alcotest.(check bool) "fallback reclaims" true (List.length !freed > 0))

let test_qsense_switch_back () =
  let s = sched ~rooster:(Some 1_000) () in
  let freed = ref [] in
  let t = Qsense.create (cfg ~q:2 ~r:2 ~c:5 ()) ~dummy ~free_bulk:(track_frees freed) in
  let h0 = Qsense.register t ~pid:0 in
  let h1 = Qsense.register t ~pid:1 in
  Scheduler.exec s ~pid:0 (fun () ->
      for i = 1 to 10 do
        Qsense.retire h0 (mk i);
        Qsense.manage_state h0
      done);
  Alcotest.(check bool) "in fallback" true
    ((Qsense.stats t).mode = Qs_smr.Smr_intf.Fallback);
  (* the delayed process comes back and both signal presence *)
  for _ = 1 to 8 do
    Scheduler.exec s ~pid:1 (fun () -> Qsense.manage_state h1);
    Scheduler.exec s ~pid:0 (fun () -> Qsense.manage_state h0)
  done;
  Alcotest.(check bool) "back on the fast path" true
    ((Qsense.stats t).mode = Qs_smr.Smr_intf.Fast);
  Alcotest.(check bool) "switch back counted" true
    ((Qsense.stats t).fallback_exits >= 1)

let test_qsense_eviction () =
  let s = sched ~rooster:(Some 1_000) () in
  let freed = ref [] in
  let t =
    Qsense.create (cfg ~q:2 ~r:2 ~c:5 ~eviction:2_000 ())
      ~dummy ~free_bulk:(track_frees freed)
  in
  let h0 = Qsense.register t ~pid:0 in
  let _h1 = Qsense.register t ~pid:1 in
  (* process 1 is dead; base QSense would stay in fallback forever, the
     eviction extension returns to the fast path *)
  Scheduler.exec s ~pid:0 (fun () ->
      for i = 1 to 10 do
        Qsense.retire h0 (mk i);
        Qsense.manage_state h0
      done;
      Alcotest.(check bool) "fell back" true
        ((Qsense.stats t).mode = Qs_smr.Smr_intf.Fallback);
      Sim_runtime.charge 5_000;
      for i = 11 to 40 do
        Qsense.retire h0 (mk i);
        Qsense.manage_state h0
      done);
  let st = Qsense.stats t in
  Alcotest.(check bool) "dead process evicted" true (st.evictions >= 1);
  Alcotest.(check bool) "back on fast path despite dead process" true
    (st.mode = Qs_smr.Smr_intf.Fast)

let test_qsense_no_eviction_without_timeout () =
  let s = sched ~rooster:(Some 1_000) () in
  let t = Qsense.create (cfg ~q:2 ~r:2 ~c:5 ()) ~dummy ~free_bulk:(fun _ _ -> ()) in
  let h0 = Qsense.register t ~pid:0 in
  let _h1 = Qsense.register t ~pid:1 in
  Scheduler.exec s ~pid:0 (fun () ->
      for i = 1 to 10 do
        Qsense.retire h0 (mk i);
        Qsense.manage_state h0
      done;
      Sim_runtime.charge 50_000;
      for i = 11 to 60 do
        Qsense.retire h0 (mk i);
        Qsense.manage_state h0
      done);
  let st = Qsense.stats t in
  Alcotest.(check int) "no evictions" 0 st.evictions;
  Alcotest.(check bool) "stays in fallback forever (paper behaviour)" true
    (st.mode = Qs_smr.Smr_intf.Fallback)

(* --- config ------------------------------------------------------------- *)

(* Q <= 0 is clamped to 1, the way R is: every operation then announces
   quiescence (or, per-operation, attempts the epoch advance), exactly as
   at Q = 1 — where the period check used to divide by Q. *)
let test_q_zero_quiesces_every_op () =
  let advances (module S : Qs_smr.Smr_intf.S with type node = fake) q =
    let s = sched () in
    let t = S.create (cfg ~n:1 ~q ()) ~dummy ~free_bulk:(fun _ _ -> ()) in
    let h = S.register t ~pid:0 in
    Scheduler.exec s ~pid:0 (fun () ->
        for _ = 1 to 12 do
          S.manage_state h;
          S.clear_hps h
        done);
    (S.stats t).epoch_advances
  in
  List.iter
    (fun (name, m) ->
      let every_op = advances m 1 in
      Alcotest.(check bool)
        (name ^ ": Q = 1 advances more often than Q = 2")
        true
        (every_op > advances m 2);
      Alcotest.(check int) (name ^ ": Q = 0 acts as Q = 1") every_op
        (advances m 0))
    [ ("qsbr", (module Qsbr : Qs_smr.Smr_intf.S with type node = fake));
      ("ebr", (module Ebr));
      ("debra-plus", (module Debra));
      ("qsense", (module Qsense)) ]

let test_legal_threshold () =
  let c = Qs_smr.Smr_intf.legal_switch_threshold (cfg ~n:4 ~k:2 ~q:10 ~r:8 ~t:100 ()) in
  (* max (m*Q = 10) (N*K + T = 108) ((K+T+R)/2 = 55) + 1 *)
  Alcotest.(check int) "legal C" 109 c

let test_scheme_names () =
  List.iter
    (fun k ->
      match Qs_smr.Scheme.of_string (Qs_smr.Scheme.to_string k) with
      | Some k' when k' = k -> ()
      | _ -> Alcotest.fail "scheme name round-trip")
    Qs_smr.Scheme.all;
  Alcotest.(check (option reject)) "unknown scheme" None
    (Qs_smr.Scheme.of_string "bogus")

let test_scheme_predicates () =
  let open Qs_smr.Scheme in
  Alcotest.(check bool) "qsense robust" true (robust Qsense);
  Alcotest.(check bool) "qsbr not robust" false (robust Qsbr);
  Alcotest.(check bool) "cadence needs roosters" true (needs_roosters Cadence);
  Alcotest.(check bool) "hp needs no roosters" false (needs_roosters Hp)

(* --- clearing only the published slots -------------------------------------- *)

(* The real runtime, keeping every hazard row it allocates and counting
   slot stores. *)
module Rows = struct
  include Qs_real.Real_runtime

  let made = ref []
  let writes = ref 0

  let plain k v =
    let r = plain k v in
    made := r :: !made;
    r

  let write r i x =
    incr writes;
    write r i x
end

module Dispatch_rows = Qs_smr.Scheme.Dispatch (Rows) (N)

(* K = 64 crosses the mask's overflow bit: slots 62 and 63 share bit 62. *)
let test_clear_published kind () =
  let k = 64 in
  let (module M) = Dispatch_rows.make kind in
  Rows.made := [];
  (* C = 1: the naive hybrid publishes only in fallback, which its first
     retire enters *)
  let t =
    M.create { (cfg ~n:1 ~k ()) with switch_threshold = 1 } ~dummy
      ~free_bulk:(fun _ _ -> ())
  in
  let row =
    match !Rows.made with
    | [ row ] -> row
    | rows -> Alcotest.failf "%d hazard rows for one process" (List.length rows)
  in
  let dirty () =
    List.filter (fun i -> Rows.read row i <> dummy.id) (List.init k Fun.id)
  in
  let publish h slots = List.iter (fun s -> M.assign_hp h ~slot:s (mk s)) slots in
  let h = M.register t ~pid:0 in
  if kind = Qs_smr.Scheme.Naive_hybrid then M.retire h (mk 1_000);
  let slots = [ 0; 5; 61; 62; 63 ] in
  publish h slots;
  Alcotest.(check (list int)) "published" slots (dirty ());
  M.clear_hps h;
  Alcotest.(check (list int)) "cleared" [] (dirty ());
  let w0 = !Rows.writes in
  M.clear_hps h;
  Alcotest.(check int) "a second clear stores nothing" 0 (!Rows.writes - w0);
  publish h [ 63 ];
  M.clear_hps h;
  Alcotest.(check (list int)) "overflow bit alone cleared" [] (dirty ());
  publish h [ 3; 63 ];
  M.unregister h;
  ignore (M.register t ~pid:0);
  Alcotest.(check (list int)) "clean after re-register" [] (dirty ())

let suite =
  [ Alcotest.test_case "hp protection" `Quick test_hp_protection;
    Alcotest.test_case "hp flush" `Quick test_hp_flush;
    Alcotest.test_case "Algorithm 2: unfenced HP loses the node" `Quick test_algorithm2_unfenced;
    Alcotest.test_case "Algorithm 2: the fence closes the race" `Quick test_algorithm2_fenced;
    Alcotest.test_case "qsbr grace period" `Quick test_qsbr_grace_period;
    Alcotest.test_case "qsbr blocks on delay" `Quick test_qsbr_blocks_on_delay;
    Alcotest.test_case "ebr tolerates idle process" `Quick test_ebr_tolerates_idle_process;
    Alcotest.test_case "ebr blocks mid-operation" `Quick test_ebr_blocks_mid_operation;
    Alcotest.test_case "cadence deferral" `Quick test_cadence_deferral;
    Alcotest.test_case "cadence respects hazard pointers" `Quick test_cadence_respects_hp;
    Alcotest.test_case "qsense fallback switch" `Quick test_qsense_fallback_switch;
    Alcotest.test_case "qsense switch back" `Quick test_qsense_switch_back;
    Alcotest.test_case "qsense eviction extension" `Quick test_qsense_eviction;
    Alcotest.test_case "qsense stays fallen back without eviction" `Quick
      test_qsense_no_eviction_without_timeout;
    Alcotest.test_case "Q <= 0 quiesces on every operation" `Quick
      test_q_zero_quiesces_every_op;
    Alcotest.test_case "legal switch threshold" `Quick test_legal_threshold;
    Alcotest.test_case "scheme name round-trip" `Quick test_scheme_names;
    Alcotest.test_case "scheme predicates" `Quick test_scheme_predicates ]
  @ List.map
      (fun kind ->
        Alcotest.test_case
          (Qs_smr.Scheme.to_string kind ^ " clears the published slots")
          `Quick (test_clear_published kind))
      Qs_smr.Scheme.[ Hp; Unsafe_hp; Cadence; Qsense; Naive_hybrid ]
