(* The benchmark's workloads, each with the reason it exists and the
   layers it loads and bypasses. Traces come from {!Qs_workload.Kv_gen}
   with the run's seed; the service only ever sees the generated trace. *)

module Ksp = Qs_workload.Kv_spec

type runtime = Real | Sim

type t = {
  name : string;
  runtime : runtime;
  spec : Ksp.t;
  why : string;
  loads : string;
  bypasses : string;
}

let read_small =
  { name = "kv-read-small";
    runtime = Real;
    spec =
      Ksp.make ~tenants:2 ~dist:(Ksp.Zipfian 0.9) ~keys_per_tenant:2_048
        ~mix:{ Ksp.get_pct = 90; put_pct = 5; del_pct = 5; scan_pct = 0 }
        ();
    why =
      "about 2 keys per bucket chain, so fixed per-request costs dominate; \
       the bypass workload for traversal and retire optimisations";
    loads =
      "service (shard routing, heartbeat), Smr_glue dispatch, manage_state, \
       HP publishes on a short probe";
    bypasses = "long traversals, reclamation (5% deletes), range scans" }

let write_small =
  { name = "kv-write-small";
    runtime = Real;
    spec =
      Ksp.make ~tenants:4 ~dist:Ksp.Uniform ~keys_per_tenant:2_048
        ~mix:{ Ksp.get_pct = 20; put_pct = 35; del_pct = 35; scan_pct = 10 }
        ();
    why =
      "write-heavy on a working set that fits L2 (about 4 keys per chain): \
       reclamation, arena reuse and index upkeep dominate";
    loads =
      "retire/bag seal/scan/free, arena reuse, skip-list index maintenance \
       and range scans, GC";
    bypasses = "long traversals (short chains), fixed costs are a small share" }

let sim_stall =
  { name = "sim-stall";
    runtime = Sim;
    spec =
      Ksp.make ~tenants:2 ~dist:Ksp.Uniform ~keys_per_tenant:2_048
        ~mix:{ Ksp.get_pct = 60; put_pct = 20; del_pct = 10; scan_pct = 10 }
        ~scan_span:16 ~base_gap:2_000
        ~burst:{ Ksp.every = 64; len = 8; factor = 4 }
        ();
    why =
      "exact open-loop queueing tails and the Property 4 memory bound through \
       a full QSense fallback round trip, with orphan adoption under churn";
    loads =
      "smr fallback (enter, Cadence scans with the age check, presence exit), \
       orphan pool, sim scheduler, latency recorder";
    bypasses = "real-domain costs: caches, GC pauses, the host clock" }

let all = [ read_small; write_small; sim_stall ]

let find name = List.find_opt (fun w -> w.name = name) all
