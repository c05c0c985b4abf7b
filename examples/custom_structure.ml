(* Applying QSense to YOUR data structure: the paper's three-rule
   methodology, walked through on Treiber's lock-free stack.

   Run with:  dune exec examples/custom_structure.exe

   The paper (§1.3, §4.2) reduces integration to three calls:

     rule 1: call manage_qsense_state in states where you hold no shared
             references — typically at the top of each operation.
             (Treiber_stack.push/pop call [D.manage_state ctx.smr] first
             thing, where [D] is the stack's reclamation domain, an
             [Smr_domain.Make] over its node type, and [ctx.smr] the
             caller's handle on it.)

     rule 2: before dereferencing a node you read from shared memory,
             publish a hazard pointer to it and RE-VALIDATE the read —
             with QSense/Cadence, WITHOUT the memory barrier classic
             hazard pointers need:

               match R.get stack.top with
               | Ptr n as old ->
                 D.assign_hp ctx.smr ~slot:0 n;      (* plain store! *)
                 if R.get stack.top != old then retry ()
                 else ... safe to use n ...

     rule 3: where a sequential implementation would call free() on an
             unlinked node, call free_node_later (retire) instead:

               if R.cas stack.top old n.next then begin
                 D.retire ctx.smr n;    (* NOT D.free! *)
                 ...

   This file demonstrates the payoff: with reclamation None the stack leaks
   and classic ABA-prone recycling is unsafe; with QSense the stack runs in
   bounded memory with zero use-after-free, at a cost far below classic
   hazard pointers (no fence per pop). *)

open Qs_sim
module Stack = Qs_ds.Treiber_stack.Make (Sim_runtime)

let run scheme =
  let n = 4 in
  let sched =
    Scheduler.create
      { (Scheduler.default_config ~n_cores:n ~seed:11) with
        rooster_interval = Some 2_000 }
  in
  let base = Qs_ds.Set_intf.default_config ~n_processes:n ~scheme in
  let st =
    Stack.create
      { base with
        smr =
          { base.smr with
            quiescence_threshold = 16;
            scan_threshold = 16;
            rooster_interval = 2_000;
            epsilon = 300 } }
  in
  let ctxs = Array.init n (fun pid -> Stack.register st ~pid) in
  for pid = 0 to n - 1 do
    Scheduler.spawn sched ~pid (fun () ->
        let prng = Qs_util.Prng.create ~seed:(7 * (pid + 1)) in
        for i = 1 to 10_000 do
          if Qs_util.Prng.bool prng then Stack.push ctxs.(pid) i
          else ignore (Stack.pop ctxs.(pid))
        done)
  done;
  Scheduler.run_all sched;
  let r = Stack.report st in
  Printf.printf "%-8s retires=%-6d freed=%-6d outstanding=%-5d UAF=%d\n"
    (Qs_smr.Scheme.to_string scheme)
    r.smr.retires r.smr.frees r.outstanding r.violations;
  assert (r.violations = 0)

let () =
  print_endline "Treiber stack, 4 processes x 10k ops, 50/50 push/pop:";
  print_newline ();
  List.iter run
    [ Qs_smr.Scheme.None_; Qs_smr.Scheme.Hp; Qs_smr.Scheme.Qsense ];
  print_newline ();
  print_endline "Note how 'none' never frees (outstanding keeps every retired";
  print_endline "node) while hp/qsense recycle nodes and stay bounded."
