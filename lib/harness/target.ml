type t =
  | Set of { ds : Cset.kind; workload : Qs_workload.Spec.t }
  | Kv of { gen : Qs_workload.Kv_gen.t; n_shards : int }

let n_kinds = function
  | Set _ -> Qs_workload.Spec.n_kinds
  | Kv _ -> Qs_workload.Kv_spec.n_kinds

module type DRIVER = sig
  type t
  type ctx

  val create : Qs_ds.Set_intf.config -> t
  val register : t -> pid:int -> ctx
  val unregister : ctx -> unit
  val initial_keys : int list
  val fill : ctx -> int -> unit
  val arrival : pid:int -> i:int -> int
  val step : ctx -> Qs_util.Prng.t -> pid:int -> i:int -> int
  val to_list : ctx -> int list
  val live_nodes : ctx -> int
  val flush : ctx -> unit
  val report : t -> Qs_ds.Set_intf.report
  val violations : t -> int
  val outstanding : t -> int
end

module H = Qs_verify.History

module Make (R : Qs_intf.Runtime_intf.RUNTIME) = struct
  let cset_of : Cset.kind -> (module Cset.S) = function
    | Cset.List -> (module Qs_ds.Linked_list.Make (R))
    | Cset.Skiplist -> (module Qs_ds.Skiplist.Make (R))
    | Cset.Bst -> (module Qs_ds.Bst.Make (R))
    | Cset.Hashtable -> (module Qs_ds.Hashtable.Make (R))

  let driver ?history : t -> (module DRIVER) = function
    | Set { ds; workload } ->
      let module C = (val cset_of ds) in
      (module struct
        include C

        let initial_keys = Qs_workload.Spec.initial_keys workload
        let fill ctx k = ignore (C.insert ctx k)
        let arrival ~pid:_ ~i:_ = 0

        let step ctx prng ~pid ~i:_ =
          let op = Qs_workload.Spec.pick prng workload in
          (match history with
          | Some (h, clock) ->
            let op, key =
              match op with
              | Search k -> (H.Search, k)
              | Insert k -> (H.Insert, k)
              | Delete k -> (H.Delete, k)
            in
            H.invoke h ~pid ~op ~key ~at:(clock ())
          | None -> ());
          let result =
            match op with
            | Search k -> C.search ctx k
            | Insert k -> C.insert ctx k
            | Delete k -> C.delete ctx k
          in
          (match history with
          | Some (h, clock) -> H.respond h ~pid ~result ~at:(clock ())
          | None -> ());
          Qs_workload.Spec.kind_index op

        let live_nodes ctx = C.nodes_per_key * C.size ctx
      end)
    | Kv { gen; n_shards = shards } ->
      (* a fresh application per run, as [cset_of] gives each set run:
         node uids restart, so a seeded run's trace is the same whatever
         ran before it in the process *)
      let module K = Qs_service.Kv.Make (R) in
      (module struct
        include K

        let create cfg = K.create ~n_shards:shards cfg

        let initial_keys =
          Qs_workload.Kv_spec.initial_keys (Qs_workload.Kv_gen.spec gen)

        let fill ctx k = ignore (K.put ctx k)
        let arrival ~pid ~i = Qs_workload.Kv_gen.arrival gen ~pid ~i

        let step ctx _ ~pid ~i =
          let op = Qs_workload.Kv_gen.op gen ~pid ~i in
          (match op with
          | Qs_workload.Kv_spec.Get k -> ignore (K.get ctx k)
          | Put k -> ignore (K.put ctx k)
          | Del k -> ignore (K.del ctx k)
          | Scan (lo, hi) -> ignore (K.scan ctx ~lo ~hi));
          Qs_workload.Kv_spec.kind_index op
      end)
end
