(* Tests for the deterministic TSO simulator: store-buffer semantics,
   fences, atomics, roosters, clocks, delay injection, determinism. *)

open Qs_sim
module R = Sim_runtime

let cfg ?(n_cores = 2) ?(seed = 1) ?rooster_interval ?(capacity = 1024) () =
  { (Scheduler.default_config ~n_cores ~seed) with
    rooster_interval;
    store_buffer_capacity = capacity }

(* A plain write is invisible to the other process until a fence. *)
let test_tso_staleness () =
  let s = Scheduler.create (cfg ()) in
  let x = R.plain 1 0 in
  let seen_before_fence = ref (-1) in
  let seen_after_fence = ref (-1) in
  let flag = R.atomic false in
  Scheduler.spawn s ~pid:0 (fun () ->
      R.write x 0 1;
      (* let process 1 observe before we fence *)
      for _ = 1 to 50 do
        R.yield ();
        R.charge 5
      done;
      R.fence ();
      R.set flag true);
  Scheduler.spawn s ~pid:1 (fun () ->
      R.charge 20;
      seen_before_fence := R.read x 0;
      (* wait for the fence *)
      while not (R.get flag) do
        R.charge 5
      done;
      seen_after_fence := R.read x 0);
  Scheduler.run_all s;
  Alcotest.(check (list (pair int reject))) "no failures" [] (Scheduler.failures s);
  Alcotest.(check int) "stale before fence" 0 !seen_before_fence;
  Alcotest.(check int) "visible after fence" 1 !seen_after_fence

(* Store-to-load forwarding: the writer reads its own buffered store. *)
let test_store_to_load_forwarding () =
  let s = Scheduler.create (cfg ~n_cores:1 ()) in
  let x = R.plain 1 0 in
  let v =
    Scheduler.exec s ~pid:0 (fun () ->
        R.write x 0 42;
        R.read x 0)
  in
  Alcotest.(check int) "own store visible" 42 v;
  Alcotest.(check int) "still buffered" 1 (Cell.pending_count x.(0))

(* Atomic ops by the writer drain its own buffer (x86 lock semantics). *)
let test_atomic_drains_buffer () =
  let s = Scheduler.create (cfg ~n_cores:1 ()) in
  let x = R.plain 1 0 in
  let a = R.atomic 0 in
  Scheduler.exec s ~pid:0 (fun () ->
      R.write x 0 7;
      R.set a 1);
  Alcotest.(check int) "committed" 7 (Cell.plain_committed x.(0))

(* Buffer capacity: oldest store commits when the buffer overflows. *)
let test_capacity_overflow () =
  let s = Scheduler.create (cfg ~n_cores:1 ~capacity:4 ()) in
  let cells = Array.init 10 (fun _ -> R.plain 1 0) in
  Scheduler.exec s ~pid:0 (fun () ->
      Array.iteri (fun i c -> R.write c 0 (i + 1)) cells);
  (* 10 writes, capacity 4: the 6 oldest must have committed *)
  for i = 0 to 5 do
    Alcotest.(check int) (Printf.sprintf "cell %d committed" i) (i + 1)
      (Cell.plain_committed cells.(i).(0))
  done;
  Alcotest.(check int) "newest still pending" 0 (Cell.plain_committed cells.(9).(0))

(* One process writes one cell past the buffer's capacity: each overflow
   commits the oldest store, so main memory steps through the older values
   in write order, while forwarding keeps returning the newest. *)
let test_one_cell_overflow () =
  let s = Scheduler.create (cfg ~n_cores:1 ~capacity:4 ()) in
  let x = R.plain 1 0 in
  let seen =
    Scheduler.exec s ~pid:0 (fun () ->
        let acc = ref [] in
        for v = 1 to 10 do
          R.write x 0 v;
          acc := (Cell.plain_committed x.(0), Cell.pending_count x.(0), R.read x 0) :: !acc
        done;
        List.rev !acc)
  in
  Alcotest.(check (list (triple int int int)))
    "committed, pending, forwarded after each write"
    (List.init 10 (fun i -> (max 0 (i - 3), min (i + 1) 4, i + 1)))
    seen

(* Two processes hold interleaved pending stores to one cell. Each reads
   its own newest store; after the other's newest store commits, a process
   still reads its own older pending one; and main memory ends with the
   store that committed last, not the one written last. *)
let test_two_writers_one_cell () =
  let s = Scheduler.create (cfg ()) in
  let x = R.plain 1 0 in
  let write pid v = Scheduler.exec s ~pid (fun () -> R.write x 0 v) in
  let read pid = Scheduler.exec s ~pid (fun () -> R.read x 0) in
  let fence pid = Scheduler.exec s ~pid R.fence in
  let check what want =
    let committed = Cell.plain_committed x.(0) and pending = Cell.pending_count x.(0) in
    let r0 = read 0 in
    let r1 = read 1 in
    Alcotest.(check (list int)) (what ^ ": committed, pending, reads by 0 and 1") want
      [ committed; pending; r0; r1 ]
  in
  write 0 1;
  write 1 2;
  write 0 3;
  write 1 4;
  check "all four pending" [ 0; 4; 3; 4 ];
  fence 1;
  check "the other's newest committed" [ 4; 2; 3; 4 ];
  fence 0;
  check "commit order decides" [ 3; 0; 3; 3 ]

(* Unfenced stores to one plain cell — a hazard-pointer slot published over
   and over before anything drains — allocate nothing, overflow commits
   included. *)
let test_unfenced_writes_zero_alloc () =
  let s = Scheduler.create (cfg ~n_cores:1 ~capacity:64 ()) in
  let x = R.plain 1 0 in
  let words =
    Scheduler.exec s ~pid:0 (fun () ->
        for i = 1 to 1_000 do
          R.write x 0 i
        done;
        let w0 = Gc.minor_words () in
        for i = 1 to 1_000 do
          R.write x 0 i
        done;
        Gc.minor_words () -. w0)
  in
  Alcotest.(check (float 0.0)) "minor words for 1,000 writes" 0.0 words

(* Roosters flush the worker's buffer within T (+ oversleep + switch). *)
let test_rooster_flush () =
  let s = Scheduler.create (cfg ~n_cores:1 ~rooster_interval:100 ()) in
  let x = R.plain 1 0 in
  Scheduler.exec s ~pid:0 (fun () ->
      R.write x 0 5;
      R.charge 500);
  Alcotest.(check bool) "rooster fired" true (Scheduler.rooster_fires s > 0);
  Alcotest.(check int) "flushed by rooster" 5 (Cell.plain_committed x.(0))

let test_cas_semantics () =
  let s = Scheduler.create (cfg ~n_cores:1 ()) in
  let a = R.atomic "a" in
  let r =
    Scheduler.exec s ~pid:0 (fun () ->
        let v0 = R.get a in
        let ok1 = R.cas a v0 "b" in
        let ok2 = R.cas a v0 "c" in
        (* stale expected *)
        (ok1, ok2, R.get a))
  in
  Alcotest.(check (triple bool bool string)) "cas" (true, false, "b") r

let test_faa () =
  let s = Scheduler.create (cfg ~n_cores:1 ()) in
  let a = R.atomic 10 in
  let old =
    Scheduler.exec s ~pid:0 (fun () ->
        let o = R.fetch_and_add a 5 in
        o)
  in
  Alcotest.(check int) "old value" 10 old;
  Alcotest.(check int) "new value" 15 (Cell.read_committed a)

(* Virtual time: parallel cores advance independently — n cores doing the
   same work finish at roughly the same virtual time as one core. *)
let test_parallel_virtual_time () =
  let work () =
    let a = R.plain 1 0 in
    for i = 1 to 1000 do
      R.write a 0 i
    done
  in
  let t1 =
    let s = Scheduler.create (cfg ~n_cores:1 ~seed:3 ()) in
    Scheduler.spawn s ~pid:0 work;
    Scheduler.run_all s;
    Scheduler.max_clock s
  in
  let t4 =
    let s = Scheduler.create (cfg ~n_cores:4 ~seed:3 ()) in
    for pid = 0 to 3 do
      Scheduler.spawn s ~pid work
    done;
    Scheduler.run_all s;
    Scheduler.max_clock s
  in
  Alcotest.(check bool)
    (Printf.sprintf "4 cores not 4x slower (t1=%d t4=%d)" t1 t4)
    true
    (t4 < 2 * t1)

let test_self_and_now () =
  let s = Scheduler.create (cfg ~n_cores:3 ()) in
  let ids = Array.make 3 (-1) in
  for pid = 0 to 2 do
    Scheduler.spawn s ~pid (fun () ->
        ids.(pid) <- R.self ();
        let t0 = R.now () in
        R.charge 100;
        let t1 = R.now () in
        assert (t1 >= t0 + 100))
  done;
  Scheduler.run_all s;
  Alcotest.(check (array int)) "self ids" [| 0; 1; 2 |] ids;
  Alcotest.(check (list (pair int reject))) "no failures" [] (Scheduler.failures s)

let test_sleep_until () =
  let s = Scheduler.create (cfg ~n_cores:2 ()) in
  let woke_at = ref 0 in
  let other_progress = ref 0 in
  Scheduler.spawn s ~pid:0 (fun () ->
      R.sleep_until 10_000;
      woke_at := R.now ());
  Scheduler.spawn s ~pid:1 (fun () ->
      while R.now () < 5_000 do
        R.charge 50;
        incr other_progress
      done);
  Scheduler.run_all s;
  Alcotest.(check bool) "woke after target" true (!woke_at >= 10_000);
  Alcotest.(check bool) "other made progress meanwhile" true (!other_progress > 50)

(* A sleeping process's buffer is still flushed by its core's rooster. *)
let test_rooster_flushes_sleeper () =
  let s = Scheduler.create (cfg ~n_cores:1 ~rooster_interval:1_000 ()) in
  let x = R.plain 1 0 in
  Scheduler.exec s ~pid:0 (fun () ->
      R.write x 0 9;
      R.sleep_until 20_000);
  Alcotest.(check int) "flushed during sleep" 9 (Cell.plain_committed x.(0))

(* Exceptions in workers are recorded, not propagated by run_all. *)
let test_failure_recorded () =
  let s = Scheduler.create (cfg ~n_cores:2 ()) in
  Scheduler.spawn s ~pid:0 (fun () -> failwith "boom");
  Scheduler.spawn s ~pid:1 (fun () -> R.charge 10);
  Scheduler.run_all s;
  match Scheduler.failures s with
  | [ (0, Failure msg) ] when msg = "boom" -> ()
  | _ -> Alcotest.fail "expected exactly one recorded failure"

let test_exec_reraises () =
  let s = Scheduler.create (cfg ~n_cores:1 ()) in
  Alcotest.check_raises "exec re-raises" (Failure "bang") (fun () ->
      Scheduler.exec s ~pid:0 (fun () -> failwith "bang"));
  Alcotest.(check (list (pair int reject))) "failures cleared" [] (Scheduler.failures s)

(* Full determinism: two runs with the same seed produce identical clocks,
   step counts and memory contents. *)
let run_det seed =
  let s = Scheduler.create (cfg ~n_cores:4 ~seed ()) in
  let shared = R.atomic 0 in
  let accum = R.plain 1 0 in
  for pid = 0 to 3 do
    Scheduler.spawn s ~pid (fun () ->
        for _ = 1 to 200 do
          let v = R.get shared in
          if R.cas shared v (v + 1) then R.write accum 0 (R.read accum 0 + 1);
          R.fence ()
        done)
  done;
  Scheduler.run_all s;
  (Scheduler.max_clock s, Scheduler.steps s, Cell.read_committed shared, Cell.plain_committed accum.(0))

let test_determinism () =
  let a = run_det 99 and b = run_det 99 in
  Alcotest.(check bool) "identical runs" true (a = b);
  let c = run_det 100 in
  Alcotest.(check bool) "different seed differs" true (a <> c)

(* To the simulator an atomic array is an array of cells: the same
   operations on one, and on an array of lone atomics, take the same steps
   and time and leave the same memory. *)
let run_row ~get ~set ~cas ~committed =
  let s = Scheduler.create (cfg ~n_cores:4 ~seed:7 ()) in
  for pid = 0 to 3 do
    Scheduler.spawn s ~pid (fun () ->
        for i = 1 to 100 do
          let j = (pid + i) mod 4 in
          let v = get j in
          if not (cas j v (v + pid + 1)) then set ((j + 1) mod 4) i
        done)
  done;
  Scheduler.run_all s;
  (Scheduler.max_clock s, Scheduler.steps s, List.init 4 committed)

let test_atomic_array_matches_cells () =
  let row = R.atomic_array 4 Fun.id in
  let cells = Array.init 4 R.atomic in
  let ((_, steps, _) as a) =
    run_row ~get:(R.aget row) ~set:(R.aset row) ~cas:(R.acas row)
      ~committed:(fun i -> Cell.read_committed row.(i))
  in
  let b =
    run_row
      ~get:(fun i -> R.get cells.(i))
      ~set:(fun i -> R.set cells.(i))
      ~cas:(fun i -> R.cas cells.(i))
      ~committed:(fun i -> Cell.read_committed cells.(i))
  in
  Alcotest.(check bool) "ran" true (steps > 0);
  Alcotest.(check bool) "same clock, steps and memory" true (a = b)

(* Remote-access cost: ping-pong on one cell costs more than local reuse. *)
let test_contention_cost () =
  let run n_cores =
    let s = Scheduler.create (cfg ~n_cores ~seed:5 ()) in
    let hot = R.atomic 0 in
    for pid = 0 to n_cores - 1 do
      Scheduler.spawn s ~pid (fun () ->
          for _ = 1 to 500 do
            let v = R.get hot in
            ignore (R.cas hot v (v + 1))
          done)
    done;
    Scheduler.run_all s;
    Scheduler.max_clock s
  in
  let solo = run 1 and contended = run 4 in
  Alcotest.(check bool)
    (Printf.sprintf "contention costs (solo=%d contended=%d)" solo contended)
    true (contended > solo)

(* reset_clocks: clocks restart at zero, buffers drain, roosters reschedule *)
let test_reset_clocks () =
  let s = Scheduler.create (cfg ~n_cores:2 ~rooster_interval:500 ()) in
  let x = R.plain 1 0 in
  Scheduler.exec s ~pid:0 (fun () ->
      R.charge 10_000;
      R.write x 0 3);
  Alcotest.(check bool) "clock advanced" true (Scheduler.clock_of s ~pid:0 >= 10_000);
  Scheduler.reset_clocks s;
  Alcotest.(check int) "clock reset" 0 (Scheduler.clock_of s ~pid:0);
  Alcotest.(check int) "buffer drained" 3 (Cell.plain_committed x.(0));
  (* roosters fire again on the fresh timeline *)
  let fires_before = Scheduler.rooster_fires s in
  Scheduler.exec s ~pid:0 (fun () -> R.charge 2_000);
  Alcotest.(check bool) "roosters rescheduled" true
    (Scheduler.rooster_fires s > fires_before)

let test_counters () =
  let s = Scheduler.create (cfg ~n_cores:1 ()) in
  let x = R.plain 1 0 in
  Scheduler.exec s ~pid:0 (fun () ->
      R.write x 0 1;
      R.fence ();
      R.write x 0 2;
      R.fence ());
  Alcotest.(check bool) "steps counted" true (Scheduler.steps s >= 4);
  Alcotest.(check bool) "flushes counted" true (Scheduler.flush_count s ~pid:0 >= 2)

(* Atomic loads cost more than plain ops (the pointer-chase model). With
   stalls off, each step pays its base cost plus a jitter coin of 0 or 1
   tick, drawn from the step's one PRNG draw: the two runs start from the
   same seed and draw once per step, so they toss the same coins and their
   excess over the base cost is equal. A stall or a second draw per step
   breaks the exact ranges or the equal excess. *)
let test_atomic_load_cost () =
  let cost_of f =
    let s =
      Scheduler.create
        { (cfg ~n_cores:1 ()) with
          cost = { Scheduler.default_cost with stall_prob = 0. } }
    in
    Scheduler.exec s ~pid:0 f;
    Scheduler.clock_of s ~pid:0
  in
  let a = R.atomic 0 in
  let p = R.plain 1 0 in
  let atomic_cost = cost_of (fun () -> for _ = 1 to 100 do ignore (R.get a) done) in
  let plain_cost = cost_of (fun () -> for _ = 1 to 100 do ignore (R.read p 0) done) in
  let within what lo hi v =
    if v < lo || v > hi then Alcotest.failf "%s cost %d outside [%d, %d]" what v lo hi
  in
  within "100 atomic loads" 800 900 atomic_cost;
  within "100 plain reads" 100 200 plain_cost;
  Alcotest.(check int) "same jitter excess" (atomic_cost - 800) (plain_cost - 100)

(* A test-local trace sink: each process's events, in emission order, as
   (time, event, a, b). *)
let recording_sink n =
  let log = Array.make n [] in
  let sink =
    { Qs_intf.Runtime_intf.record =
        (fun ~pid ~time ~ev ~a ~b -> log.(pid) <- (time, ev, a, b) :: log.(pid)) }
  in
  (sink, fun () -> Array.to_list (Array.map List.rev log))

(* Rooster wake-ups reach the installed trace sink, stamped with the core
   clock, in clock order; a removed sink receives nothing. *)
let test_rooster_sink () =
  let body x a () =
    R.write x 0 1;
    ignore (R.get a);
    ignore (R.cas a 0 1);
    R.fence ();
    R.charge 1_000
  in
  let x = R.plain 1 0 in
  let a = R.atomic 0 in
  let s = Scheduler.create (cfg ~n_cores:1 ~rooster_interval:300 ()) in
  let sink, events = recording_sink 1 in
  Scheduler.set_sink s (Some sink);
  Scheduler.exec s ~pid:0 (body x a);
  let events = List.concat (events ()) in
  Alcotest.(check bool) "nonempty" true (events <> []);
  Alcotest.(check bool) "rooster fires recorded" true
    (List.exists (fun (_, ev, _, _) -> ev = Qs_intf.Runtime_intf.Ev_rooster_wake) events);
  Alcotest.(check int) "one event per rooster fire" (Scheduler.rooster_fires s)
    (List.length events);
  let rec monotone last = function
    | [] -> true
    | (clock, _, _, _) :: rest -> clock >= last && monotone clock rest
  in
  Alcotest.(check bool) "clock-ordered" true (monotone 0 events);
  let s2 = Scheduler.create (cfg ~n_cores:1 ~rooster_interval:300 ()) in
  let sink2, events2 = recording_sink 1 in
  Scheduler.set_sink s2 (Some sink2);
  Scheduler.set_sink s2 None;
  Scheduler.exec s2 ~pid:0 (body x a);
  Alcotest.(check bool) "removed sink: roosters fired" true
    (Scheduler.rooster_fires s2 > 0);
  Alcotest.(check int) "removed sink: nothing recorded" 0
    (List.length (List.concat (events2 ())))

(* --- fault injection ----------------------------------------------------- *)

(* Stall_at freezes the victim's clock forward WITHOUT draining its store
   buffer (an in-core stall); other processes are unaffected. *)
let test_inject_stall () =
  let s = Scheduler.create (cfg ~n_cores:2 ()) in
  Scheduler.inject s [ Scheduler.Stall_at { pid = 1; at = 500; ticks = 100_000 } ];
  let x = R.plain 1 0 in
  let stale = ref (-1) in
  Scheduler.spawn s ~pid:1 (fun () ->
      R.write x 0 1;
      for _ = 1 to 40 do
        R.charge 50
      done);
  Scheduler.spawn s ~pid:0 (fun () ->
      while R.now () < 2_000 do
        R.charge 50
      done;
      stale := R.read x 0);
  Scheduler.run_all s;
  Alcotest.(check (list (pair int reject))) "no failures" [] (Scheduler.failures s);
  Alcotest.(check bool) "victim clock jumped past the stall" true
    (Scheduler.clock_of s ~pid:1 >= 100_500);
  Alcotest.(check bool) "other process unaffected" true
    (Scheduler.clock_of s ~pid:0 < 50_000);
  Alcotest.(check int) "stall did not drain the buffer" 0 !stale

(* Crash_at: the victim never runs again, but its final descheduling is a
   context switch, so its buffered stores become visible. *)
let test_inject_crash () =
  let s = Scheduler.create (cfg ~n_cores:2 ()) in
  Scheduler.inject s [ Scheduler.Crash_at { pid = 1; at = 500 } ];
  let x = R.plain 1 0 in
  let progress = ref 0 in
  Scheduler.spawn s ~pid:1 (fun () ->
      R.write x 0 7;
      for _ = 1 to 1_000 do
        R.charge 50;
        incr progress
      done);
  Scheduler.spawn s ~pid:0 (fun () -> R.charge 5_000);
  Scheduler.run_all s;
  Alcotest.(check int) "one crash fired" 1 (Scheduler.crashes s);
  Alcotest.(check bool) "victim crashed" true (Scheduler.crashed s ~pid:1);
  Alcotest.(check bool) "other process alive" false (Scheduler.crashed s ~pid:0);
  Alcotest.(check int) "buffer drained at crash" 7 (Cell.plain_committed x.(0));
  Alcotest.(check bool)
    (Printf.sprintf "victim stopped early (%d/1000 iterations)" !progress)
    true
    (!progress < 1_000)

(* Oversleep_spike pushes the next rooster wake-up far beyond T. *)
let test_oversleep_spike () =
  let s = Scheduler.create (cfg ~n_cores:1 ~rooster_interval:100 ()) in
  Scheduler.inject s [ Scheduler.Oversleep_spike { pid = 0; at = 0; extra = 10_000 } ];
  let x = R.plain 1 0 in
  Scheduler.exec s ~pid:0 (fun () ->
      R.write x 0 5;
      R.charge 500);
  Alcotest.(check int) "wake-up delayed past the run" 0 (Scheduler.rooster_fires s);
  Alcotest.(check int) "nothing flushed" 0 (Cell.plain_committed x.(0))

(* Skew_burst: [now] reads ahead inside the window, normal outside it. *)
let test_skew_burst () =
  let s = Scheduler.create (cfg ~n_cores:1 ()) in
  Scheduler.inject s
    [ Scheduler.Skew_burst { pid = 0; at = 100; until_ = 1_000; extra = 5_000 } ];
  let inside = ref 0 and after = ref 0 in
  Scheduler.exec s ~pid:0 (fun () ->
      R.charge 200;
      R.charge 10;
      (* a step after the burst began: the fault has fired *)
      inside := R.now ();
      R.charge 2_000;
      R.charge 10;
      after := R.now ());
  Alcotest.(check bool)
    (Printf.sprintf "now jumps ahead inside the burst (%d)" !inside)
    true (!inside >= 5_000);
  Alcotest.(check bool)
    (Printf.sprintf "skew gone after the burst (%d)" !after)
    true (!after < 5_000)

(* Faults re-arm on reset_clocks: a second filling sees the same stall. *)
let test_faults_rearm_on_reset () =
  let s = Scheduler.create (cfg ~n_cores:1 ()) in
  Scheduler.inject s [ Scheduler.Stall_at { pid = 0; at = 100; ticks = 50_000 } ];
  Scheduler.exec s ~pid:0 (fun () -> for _ = 1 to 10 do R.charge 50 done);
  Alcotest.(check bool) "first run stalled" true (Scheduler.clock_of s ~pid:0 >= 50_000);
  Scheduler.reset_clocks s;
  Alcotest.(check int) "clock reset" 0 (Scheduler.clock_of s ~pid:0);
  Scheduler.exec s ~pid:0 (fun () -> for _ = 1 to 10 do R.charge 50 done);
  Alcotest.(check bool) "stall fired again after reset" true
    (Scheduler.clock_of s ~pid:0 >= 50_000)

(* --- scheduling strategies ----------------------------------------------- *)

(* Targeted: the (skip+1)-th labelled hook on the victim stalls in place;
   hooks are counted per process either way. *)
let test_targeted_hook_stall () =
  let s =
    Scheduler.create
      { (cfg ~n_cores:2 ()) with
        strategy =
          Scheduler.Targeted
            { victim = 1;
              hook = Qs_intf.Runtime_intf.Hook_retire;
              skip = 2;
              stall = 50_000 } }
  in
  for pid = 0 to 1 do
    Scheduler.spawn s ~pid (fun () ->
        for _ = 1 to 5 do
          R.hook Qs_intf.Runtime_intf.Hook_retire;
          R.charge 50
        done)
  done;
  Scheduler.run_all s;
  Alcotest.(check int) "victim hooks counted" 5
    (Scheduler.hook_count s ~pid:1 Qs_intf.Runtime_intf.Hook_retire);
  Alcotest.(check int) "other hooks counted" 5
    (Scheduler.hook_count s ~pid:0 Qs_intf.Runtime_intf.Hook_retire);
  Alcotest.(check int) "unrelated hook untouched" 0
    (Scheduler.hook_count s ~pid:1 Qs_intf.Runtime_intf.Hook_scan);
  Alcotest.(check bool) "victim stalled at its third retire" true
    (Scheduler.clock_of s ~pid:1 >= 50_000);
  Alcotest.(check bool) "non-victim unaffected" true
    (Scheduler.clock_of s ~pid:0 < 10_000)

(* PCT is deterministic per (seed, strategy seed) and explores orderings the
   fair schedule cannot produce. *)
let pct_completion_order strategy =
  let s = Scheduler.create { (cfg ~n_cores:4 ~seed:2 ()) with strategy } in
  let out = ref [] in
  for pid = 0 to 3 do
    Scheduler.spawn s ~pid (fun () ->
        for _ = 1 to 50 do
          R.charge 10;
          R.yield ()
        done;
        out := pid :: !out)
  done;
  Scheduler.run_all s;
  List.rev !out

let test_pct_deterministic_and_differs () =
  let fair = pct_completion_order Scheduler.Fair in
  let pct = pct_completion_order (Scheduler.Pct { depth = 3; seed = 123 }) in
  let pct' = pct_completion_order (Scheduler.Pct { depth = 3; seed = 123 }) in
  Alcotest.(check (list int)) "pct deterministic" pct pct';
  Alcotest.(check bool) "pct explores a different ordering" true (pct <> fair);
  let pct2 = pct_completion_order (Scheduler.Pct { depth = 3; seed = 124 }) in
  Alcotest.(check bool) "different pct seeds explore differently" true
    (pct <> pct2 || fair <> pct2)

(* PCT soundness: descheduling a process is a context switch, so its
   buffered stores become visible without any fence (real hardware cannot
   keep a descheduled thread's stores hidden). *)
let test_pct_flushes_on_deschedule () =
  let s =
    Scheduler.create
      { (cfg ~n_cores:2 ()) with strategy = Scheduler.Pct { depth = 2; seed = 7 } }
  in
  let x = R.plain 1 0 in
  let seen = ref (-1) in
  Scheduler.spawn s ~pid:0 (fun () ->
      R.write x 0 1;
      for _ = 1 to 100 do
        R.charge 5;
        R.yield ()
      done);
  Scheduler.spawn s ~pid:1 (fun () ->
      (* no fence anywhere: only a context-switch flush can make x visible *)
      while R.read x 0 = 0 do
        R.charge 5
      done;
      seen := R.read x 0);
  Scheduler.run_all s;
  Alcotest.(check (list (pair int reject))) "no failures" [] (Scheduler.failures s);
  Alcotest.(check int) "descheduling drained the buffer" 1 !seen

(* --- inline and suspended dispatch ---------------------------------------- *)

(* Every operation, every hook kind and roosters:
   the sum of what the process observed. After each operation the body
   emits a marker, which the trace sink stamps with the process's clock,
   so two runs compare operation by operation. Emitting costs no step, no
   virtual time and no PRNG draw on either dispatch path. *)
let mixed_body ~shared ~counter ~row pid () =
  let mark i op = R.emit Qs_intf.Runtime_intf.Ev_quiesce i op in
  let seen = ref 0 in
  for i = 1 to 60 do
    let v = R.get shared in
    mark i 0;
    if R.cas shared v (v + pid + 1) then R.hook Qs_intf.Runtime_intf.Hook_retire;
    mark i 1;
    R.write row pid i;
    mark i 2;
    seen := !seen + R.read row ((pid + 1) mod 4);
    mark i 3;
    seen := !seen + R.self ();
    mark i 4;
    seen := !seen + R.fetch_and_add counter 1;
    mark i 5;
    if i mod 7 = 0 then begin
      R.fence ();
      mark i 6;
      R.hook Qs_intf.Runtime_intf.Hook_scan
    end;
    seen := !seen + R.now ();
    mark i 7;
    R.charge (pid + 1);
    mark i 8;
    R.yield ();
    mark i 9;
    R.hook Qs_intf.Runtime_intf.Hook_quiesce
  done;
  !seen

(* Faults that fire mid-run on every process, each at a trigger time an
   inline run must stop at exactly: a stall moves the clock, a skew burst
   bends [now], an oversleep spike moves the next rooster wake-up and a
   churn request joins the queue {!Scheduler.take_churn} reads. *)
let mid_run_faults n_cores =
  List.concat
    (List.init n_cores (fun pid ->
         let at k = (k * 400) + (pid * 37) in
         [ Scheduler.Stall_at { pid; at = at 1; ticks = 900 };
           Scheduler.Skew_burst { pid; at = at 2; until_ = at 3; extra = 5_000 };
           Scheduler.Oversleep_spike { pid; at = at 3; extra = 1_500 };
           Scheduler.Churn_at { pid; at = at 4; ticks = 10 } ]))

(* A neutralization signal the body never opts into stays pending all run,
   and a pending signal keeps every operation of its process on the
   suspended path (see [Scheduler.step]), so [~suspend:true] runs the same
   program with the inline fast path off. Landing, the signal emits one
   [Ev_neutralize] per process, which is dropped from the events. *)
let run_mixed ~strategy ~faults ~suspend ~n_cores seed =
  let s =
    Scheduler.create
      { (cfg ~n_cores ~seed ~rooster_interval:700 ()) with
        strategy;
        pct_horizon = 2_000 }
  in
  let sink, events = recording_sink n_cores in
  Scheduler.set_sink s (Some sink);
  Scheduler.inject s
    ((if faults then mid_run_faults n_cores else [])
    @
    if suspend then List.init n_cores (fun pid -> Scheduler.Neutralize_at { pid; at = 0 })
    else []);
  let shared = R.atomic 0 and counter = R.atomic 0 and row = R.plain 4 0 in
  let seen = Array.make n_cores 0 in
  let body pid () = seen.(pid) <- mixed_body ~shared ~counter ~row pid () in
  if n_cores = 1 then Scheduler.exec s ~pid:0 (body 0)
  else begin
    for pid = 0 to n_cores - 1 do
      Scheduler.spawn s ~pid (body pid)
    done;
    Scheduler.run_all s
  end;
  ( Array.to_list seen,
    List.init n_cores (fun pid -> Scheduler.clock_of s ~pid),
    Scheduler.steps s,
    Cell.read_committed shared :: Cell.read_committed counter
    :: List.map Cell.plain_committed (Array.to_list row),
    List.map
      (List.filter (fun (_, ev, _, _) -> ev <> Qs_intf.Runtime_intf.Ev_neutralize))
      (events ()),
    List.init n_cores (fun pid -> Scheduler.take_churn s ~pid <> None) )

let test_inline_matches_suspended () =
  let targeted =
    Scheduler.Targeted
      { victim = 1; hook = Qs_intf.Runtime_intf.Hook_scan; skip = 2; stall = 5_000 }
  in
  List.iter
    (fun (name, strategy, n_cores) ->
      List.iter
        (fun (faults, seed) ->
          let seen, clocks, steps, mem, events, churned =
            run_mixed ~strategy ~faults ~suspend:false ~n_cores seed
          in
          let seen', clocks', steps', mem', events', churned' =
            run_mixed ~strategy ~faults ~suspend:true ~n_cores seed
          in
          let what s =
            Printf.sprintf "%s%s seed %d: %s" name
              (if faults then " + faults" else "")
              seed s
          in
          Alcotest.(check (list int)) (what "observed") seen' seen;
          Alcotest.(check (list int)) (what "clocks") clocks' clocks;
          Alcotest.(check int) (what "steps") steps' steps;
          Alcotest.(check (list int)) (what "memory") mem' mem;
          Alcotest.(check bool) (what "events nonempty") true
            (List.for_all (fun e -> e <> []) events);
          Alcotest.(check bool) (what "events") true (events' = events);
          Alcotest.(check (list bool)) (what "faults fired")
            (List.init n_cores (fun _ -> faults))
            churned;
          Alcotest.(check (list bool)) (what "faults fired (suspended)") churned churned')
        (List.concat_map (fun seed -> [ (false, seed); (true, seed) ]) [ 1; 2; 3; 99 ]))
    [ ("fair", Scheduler.Fair, 4);
      ("targeted", targeted, 4);
      ("pct", Scheduler.Pct { depth = 3; seed = 5 }, 4);
      ("exec", Scheduler.Fair, 1) ]

(* More processes than an int has bits: both picks serve any count. *)
let run_many strategy =
  let n = 70 and ops = 20 in
  let s =
    Scheduler.create { (cfg ~n_cores:n ~seed:5 ()) with strategy; pct_horizon = 4_000 }
  in
  let counter = R.atomic 0 and row = R.plain n 0 in
  let finished = Array.make n 0 in
  for pid = 0 to n - 1 do
    Scheduler.spawn s ~pid (fun () ->
        for i = 1 to ops do
          ignore (R.fetch_and_add counter 1);
          R.write row pid i;
          if i mod 5 = 0 then R.fence ();
          finished.(pid) <- i
        done)
  done;
  Scheduler.run_all s;
  Alcotest.(check (list (pair int reject))) "no failures" [] (Scheduler.failures s);
  Alcotest.(check int) "every faa landed" (n * ops) (Cell.read_committed counter);
  Array.iteri
    (fun pid k ->
      Alcotest.(check int) (Printf.sprintf "pid %d finished" pid) ops k;
      Alcotest.(check int)
        (Printf.sprintf "pid %d last write" pid)
        ops
        (Cell.plain_committed row.(pid)))
    finished;
  (List.init n (fun pid -> Scheduler.clock_of s ~pid), Scheduler.steps s)

let test_many_processes () =
  List.iter
    (fun (name, strategy) ->
      let a = run_many strategy and b = run_many strategy in
      Alcotest.(check bool) (name ^ ": same seed, same run") true (a = b))
    [ ("fair", Scheduler.Fair); ("pct", Scheduler.Pct { depth = 3; seed = 11 }) ]

(* The per-step stall roll: with stall_prob = 0 no step stalls, and with
   stall_prob = 1 every step does, each stall uniform in [0, stall_max].
   Two [now] reads bracket one plain read, so each gap is two steps of
   plain cost, a jitter coin each, and at most two stalls. *)
let test_stall_roll_bounds () =
  let gaps stall_prob =
    let s =
      Scheduler.create
        { (cfg ~n_cores:1 ()) with
          cost = { Scheduler.default_cost with stall_prob; stall_max = 50 } }
    in
    let p = R.plain 1 0 in
    let out = Array.make 200 0 in
    Scheduler.exec s ~pid:0 (fun () ->
        for i = 0 to 199 do
          let t0 = R.now () in
          ignore (R.read p 0);
          out.(i) <- R.now () - t0
        done);
    out
  in
  let check_within what lo hi g =
    Array.iter
      (fun v ->
        if v < lo || v > hi then Alcotest.failf "%s: gap %d outside [%d, %d]" what v lo hi)
      g
  in
  let never = gaps 0. and always = gaps 1. in
  check_within "stall_prob 0" 2 4 never;
  check_within "stall_prob 1" 2 (2 * (1 + 1 + 50)) always;
  let sum = Array.fold_left ( + ) 0 in
  (* 200 gaps of two steps, each stall averaging 25 ticks: ~10_000 above
     the unstalled total, which is at most 800. *)
  if sum always <= 4 * sum never then
    Alcotest.failf "stall_prob 1 total %d not far above stall_prob 0 total %d"
      (sum always) (sum never)

let suite =
  [ Alcotest.test_case "tso staleness until fence" `Quick test_tso_staleness;
    Alcotest.test_case "store-to-load forwarding" `Quick test_store_to_load_forwarding;
    Alcotest.test_case "atomic drains buffer" `Quick test_atomic_drains_buffer;
    Alcotest.test_case "capacity overflow commits oldest" `Quick test_capacity_overflow;
    Alcotest.test_case "rooster flushes buffer" `Quick test_rooster_flush;
    Alcotest.test_case "cas semantics" `Quick test_cas_semantics;
    Alcotest.test_case "fetch-and-add" `Quick test_faa;
    Alcotest.test_case "atomic array matches lone cells" `Quick
      test_atomic_array_matches_cells;
    Alcotest.test_case "parallel virtual time" `Quick test_parallel_virtual_time;
    Alcotest.test_case "self and now" `Quick test_self_and_now;
    Alcotest.test_case "sleep_until delays" `Quick test_sleep_until;
    Alcotest.test_case "rooster flushes sleeping process" `Quick test_rooster_flushes_sleeper;
    Alcotest.test_case "worker failure recorded" `Quick test_failure_recorded;
    Alcotest.test_case "exec re-raises" `Quick test_exec_reraises;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "contention cost model" `Quick test_contention_cost;
    Alcotest.test_case "reset clocks" `Quick test_reset_clocks;
    Alcotest.test_case "step/flush counters" `Quick test_counters;
    Alcotest.test_case "atomic load cost model" `Quick test_atomic_load_cost;
    Alcotest.test_case "rooster wakes reach the trace sink" `Quick test_rooster_sink;
    Alcotest.test_case "inject: stall freezes without draining" `Quick test_inject_stall;
    Alcotest.test_case "inject: crash stops and drains" `Quick test_inject_crash;
    Alcotest.test_case "inject: oversleep spike delays wake-up" `Quick test_oversleep_spike;
    Alcotest.test_case "inject: skew burst bends now" `Quick test_skew_burst;
    Alcotest.test_case "inject: faults re-arm on reset" `Quick test_faults_rearm_on_reset;
    Alcotest.test_case "targeted hook stall" `Quick test_targeted_hook_stall;
    Alcotest.test_case "pct deterministic, differs from fair" `Quick
      test_pct_deterministic_and_differs;
    Alcotest.test_case "pct flushes on deschedule" `Quick test_pct_flushes_on_deschedule;
    Alcotest.test_case "inline and suspended dispatch agree" `Quick
      test_inline_matches_suspended;
    Alcotest.test_case "one cell past capacity commits in order" `Quick
      test_one_cell_overflow;
    Alcotest.test_case "two writers on one cell" `Quick test_two_writers_one_cell;
    Alcotest.test_case "unfenced writes allocate nothing" `Quick
      test_unfenced_writes_zero_alloc;
    Alcotest.test_case "stall roll bounds each step" `Quick test_stall_roll_bounds;
    Alcotest.test_case "more than 62 processes" `Quick test_many_processes
  ]
