(* Differential testing across runtimes: the same seeded operation
   stream, applied sequentially, must produce the exact same result sequence
   on (a) the reference model, (b) every structure on the simulator runtime
   and (c) every structure on the real-domain runtime. Any divergence
   pinpoints a runtime-abstraction bug (the data-structure code is shared —
   only the RUNTIME instance differs). *)

module Spec = Qs_workload.Spec
module IS = Set.Make (Int)

let spec = Spec.make ~key_range:96 ~update_pct:60

let stream =
  let prng = Qs_util.Prng.create ~seed:77 in
  Array.init 2_500 (fun _ -> Spec.pick prng spec)

let model_results () =
  let model = ref IS.empty in
  Array.map
    (fun op ->
      match op with
      | Spec.Search k -> IS.mem k !model
      | Spec.Insert k ->
        let r = not (IS.mem k !model) in
        model := IS.add k !model;
        r
      | Spec.Delete k ->
        let r = IS.mem k !model in
        model := IS.remove k !model;
        r)
    stream

let cfg scheme = Qs_ds.Set_intf.default_config ~n_processes:1 ~scheme

let apply_stream search insert delete =
  Array.map
    (fun op ->
      match op with
      | Spec.Search k -> search k
      | Spec.Insert k -> insert k
      | Spec.Delete k -> delete k)
    stream

let sim_results (module C : Qs_harness.Cset.S) scheme =
  let s =
    Qs_sim.Scheduler.create
      { (Qs_sim.Scheduler.default_config ~n_cores:1 ~seed:1) with
        rooster_interval = Some 2_000 }
  in
  let set = C.create (cfg scheme) in
  let ctx = C.register set ~pid:0 in
  let r =
    Qs_sim.Scheduler.exec s ~pid:0 (fun () ->
        apply_stream (C.search ctx) (C.insert ctx) (C.delete ctx))
  in
  Alcotest.(check int) "sim: no violations" 0 (C.violations set);
  r

let real_results (module C : Qs_harness.Cset.S) scheme =
  Qs_real.Real_runtime.register_self 0;
  let set = C.create (cfg scheme) in
  let ctx = C.register set ~pid:0 in
  let r = apply_stream (C.search ctx) (C.insert ctx) (C.delete ctx) in
  Alcotest.(check int) "real: no violations" 0 (C.violations set);
  r

let case name run =
  Alcotest.test_case name `Quick (fun () ->
      let expected = model_results () in
      List.iter
        (fun scheme ->
          let got = run scheme in
          if got <> expected then begin
            (* locate the first divergence for a useful message *)
            let i = ref 0 in
            while !i < Array.length got && got.(!i) = expected.(!i) do
              incr i
            done;
            Alcotest.failf "%s/%s diverges from the model at op %d" name
              (Qs_smr.Scheme.to_string scheme) !i
          end)
        [ Qs_smr.Scheme.Qsense; Qs_smr.Scheme.Hp; Qs_smr.Scheme.Qsbr ])

let suite =
  [ case "sim list" (sim_results (Qs_harness.Sim_exp.cset_of Qs_harness.Cset.List));
    case "sim skiplist" (sim_results (Qs_harness.Sim_exp.cset_of Qs_harness.Cset.Skiplist));
    case "sim bst" (sim_results (Qs_harness.Sim_exp.cset_of Qs_harness.Cset.Bst));
    case "sim hashtable" (sim_results (Qs_harness.Sim_exp.cset_of Qs_harness.Cset.Hashtable));
    case "real list" (real_results (Qs_harness.Real_exp.cset_of Qs_harness.Cset.List));
    case "real skiplist" (real_results (Qs_harness.Real_exp.cset_of Qs_harness.Cset.Skiplist));
    case "real bst" (real_results (Qs_harness.Real_exp.cset_of Qs_harness.Cset.Bst));
    case "real hashtable" (real_results (Qs_harness.Real_exp.cset_of Qs_harness.Cset.Hashtable))
  ]
