(* Treiber-stack tests: LIFO semantics, concurrent conservation (every
   pushed value is popped exactly once or still on the stack), ABA freedom
   under recycling pressure, reclamation accounting. *)

open Qs_sim
module S = Qs_ds.Treiber_stack.Make (Sim_runtime)

let sched ?(n_cores = 4) ?(seed = 1) () =
  Scheduler.create
    { (Scheduler.default_config ~n_cores ~seed) with
      rooster_interval = Some 2_000;
      rooster_oversleep = 50 }

let stack_cfg ?(scheme = Qs_smr.Scheme.Qsense) ?(n = 4) () =
  let base = Qs_ds.Set_intf.default_config ~n_processes:n ~scheme in
  { base with
    smr =
      { base.smr with
        quiescence_threshold = 8;
        scan_threshold = 8;
        rooster_interval = 2_000;
        epsilon = 300 } }

let test_lifo () =
  let s = sched ~n_cores:1 () in
  let st = S.create (stack_cfg ~n:1 ()) in
  let ctx = S.register st ~pid:0 in
  Scheduler.exec s ~pid:0 (fun () ->
      Alcotest.(check (option int)) "empty pop" None (S.pop ctx);
      for i = 1 to 10 do
        S.push ctx i
      done;
      for i = 10 downto 1 do
        Alcotest.(check (option int)) "lifo order" (Some i) (S.pop ctx)
      done;
      Alcotest.(check (option int)) "empty again" None (S.pop ctx))

let test_push_pop_interleaved_sequential () =
  let s = sched ~n_cores:1 () in
  let st = S.create (stack_cfg ~n:1 ()) in
  let ctx = S.register st ~pid:0 in
  let prng = Qs_util.Prng.create ~seed:5 in
  Scheduler.exec s ~pid:0 (fun () ->
      let model = ref [] in
      for i = 1 to 2_000 do
        if Qs_util.Prng.bool prng then begin
          S.push ctx i;
          model := i :: !model
        end
        else begin
          let expected = match !model with [] -> None | x :: r -> model := r; Some x in
          Alcotest.(check (option int)) "pop matches model" expected (S.pop ctx)
        end
      done;
      Alcotest.(check (list int)) "final contents" !model (S.to_list ctx));
  Alcotest.(check int) "no violations" 0 (S.violations st)

let concurrent_run ~scheme ~seed =
  let n = 4 and per_worker = 1_500 in
  let s = sched ~n_cores:n ~seed () in
  let st = S.create (stack_cfg ~scheme ~n ()) in
  let ctxs = Array.init n (fun pid -> S.register st ~pid) in
  let popped = Array.init n (fun _ -> ref []) in
  let pushed = Array.make n 0 in
  for pid = 0 to n - 1 do
    Scheduler.spawn s ~pid (fun () ->
        let prng = Qs_util.Prng.create ~seed:(seed + pid) in
        let ctx = ctxs.(pid) in
        for _ = 1 to per_worker do
          if Qs_util.Prng.percent prng < 55 then begin
            (* distinct values: pid * 1e6 + counter *)
            pushed.(pid) <- pushed.(pid) + 1;
            S.push ctx ((pid * 1_000_000) + pushed.(pid))
          end
          else
            match S.pop ctx with
            | Some v -> popped.(pid) := v :: !(popped.(pid))
            | None -> ()
        done)
  done;
  Scheduler.run_all s;
  (match Scheduler.failures s with
  | [] -> ()
  | (pid, e) :: _ -> Alcotest.failf "worker %d died: %s" pid (Printexc.to_string e));
  Alcotest.(check int) "no use-after-free" 0 (S.violations st);
  let remaining = Scheduler.exec s ~pid:0 (fun () -> S.to_list ctxs.(0)) in
  let all_popped = Array.fold_left (fun acc l -> List.rev_append !l acc) [] popped in
  let seen = all_popped @ remaining in
  let sorted = List.sort compare seen in
  let dedup = List.sort_uniq compare seen in
  Alcotest.(check int) "no value seen twice (no ABA)" (List.length dedup)
    (List.length sorted);
  (* every pushed value is accounted for: pushed = popped + remaining *)
  Alcotest.(check int) "conservation"
    (Array.fold_left ( + ) 0 pushed)
    (List.length seen);
  (* teardown accounting *)
  Scheduler.exec s ~pid:0 (fun () -> Array.iter S.flush ctxs);
  let r = S.report st in
  Alcotest.(check int) "no double frees" 0 r.double_frees;
  if scheme <> Qs_smr.Scheme.None_ then
    Alcotest.(check int) "outstanding = nodes still on stack"
      (List.length remaining) r.outstanding

let test_concurrent scheme () =
  concurrent_run ~scheme ~seed:9;
  concurrent_run ~scheme ~seed:77

(* Neutralization signals land mid-operation ([Neutralize_at], a dense
   plan on every worker); workers retry aborted ops. An aborted push may
   or may not have published its node, so values are not conserved, but
   the arena must still balance: a push aborted before its publishing CAS
   returns its node to the arena, and a pop past its unlinking CAS has
   retired its node, so after the flush every outstanding node is on the
   stack. *)
let neutralized_run ~scheme ~seed =
  let n = 4 and per_worker = 600 and gap = 1_500 in
  let s = sched ~n_cores:n ~seed () in
  Scheduler.inject s
    (List.init n (fun pid ->
         List.init 60 (fun i ->
             Scheduler.Neutralize_at { pid; at = ((i + 1) * gap) + (pid * 97) }))
    |> List.concat);
  let st = S.create (stack_cfg ~scheme ~n ()) in
  let ctxs = Array.init n (fun pid -> S.register st ~pid) in
  let aborted_pushes = ref 0 in
  for pid = 0 to n - 1 do
    Scheduler.spawn s ~pid (fun () ->
        let prng = Qs_util.Prng.create ~seed:(seed + pid) in
        let ctx = ctxs.(pid) in
        let rec retry op =
          Scheduler.set_neutralizable s ~pid true;
          match op () with
          | () -> Scheduler.set_neutralizable s ~pid false
          | exception Qs_intf.Runtime_intf.Neutralized ->
            Scheduler.set_neutralizable s ~pid false;
            retry op
        in
        for i = 1 to per_worker do
          if Qs_util.Prng.percent prng < 55 then
            retry (fun () ->
                try S.push ctx i
                with Qs_intf.Runtime_intf.Neutralized as e ->
                  incr aborted_pushes;
                  raise e)
          else retry (fun () -> ignore (S.pop ctx))
        done)
  done;
  Scheduler.run_all s;
  (match Scheduler.failures s with
  | [] -> ()
  | (pid, e) :: _ -> Alcotest.failf "worker %d died: %s" pid (Printexc.to_string e));
  Alcotest.(check bool) "pushes were aborted" true (!aborted_pushes > 0);
  Alcotest.(check int) "no use-after-free" 0 (S.violations st);
  let remaining = Scheduler.exec s ~pid:0 (fun () -> S.length ctxs.(0)) in
  Scheduler.exec s ~pid:0 (fun () -> Array.iter S.flush ctxs);
  let r = S.report st in
  Alcotest.(check int) "no double frees" 0 r.double_frees;
  Alcotest.(check int) "outstanding = nodes still on stack" remaining
    r.outstanding

let test_neutralized scheme () =
  neutralized_run ~scheme ~seed:13;
  neutralized_run ~scheme ~seed:58

let suite =
  [ Alcotest.test_case "lifo order" `Quick test_lifo;
    Alcotest.test_case "sequential model" `Quick test_push_pop_interleaved_sequential;
    Alcotest.test_case "concurrent qsense" `Quick (test_concurrent Qs_smr.Scheme.Qsense);
    Alcotest.test_case "concurrent hp" `Quick (test_concurrent Qs_smr.Scheme.Hp);
    Alcotest.test_case "concurrent qsbr" `Quick (test_concurrent Qs_smr.Scheme.Qsbr);
    Alcotest.test_case "concurrent cadence" `Quick (test_concurrent Qs_smr.Scheme.Cadence)
  ]
  @ List.map
      (fun scheme ->
        Alcotest.test_case
          (Printf.sprintf "neutralized push/pop %s"
             (Qs_smr.Scheme.to_string scheme))
          `Quick (test_neutralized scheme))
      Qs_smr.Scheme.[ Qsense; Hp; Qsbr; Ebr; Cadence; Debra_plus; Hyaline ]
