(** What an experiment runner drives: a concurrent set under a random
    operation mix, or the sharded KV service replaying a
    pre-generated request trace. {!Sim_exp} and {!Real_exp} run either
    through one worker loop; a target only decides how a structure is
    built, filled, stepped and inspected. *)

type t =
  | Set of { ds : Cset.kind; workload : Qs_workload.Spec.t }
  | Kv of {
      gen : Qs_workload.Kv_gen.t;
          (** request streams; non-zero arrival times make the run open
              loop (see {!DRIVER.arrival}) *)
      n_shards : int;
    }

val n_kinds : t -> int
(** Op kinds a latency recorder for this target needs: 3 for a set
    (search/insert/delete), 4 for the service (get/put/del/scan). *)

(** A target applied to one runtime. *)
module type DRIVER = sig
  type t
  type ctx

  val create : Qs_ds.Set_intf.config -> t
  val register : t -> pid:int -> ctx
  val unregister : ctx -> unit

  val initial_keys : int list
  (** The half-full prefill (§7.1), before the runner's shuffle. *)

  val fill : ctx -> int -> unit

  val arrival : pid:int -> i:int -> int
  (** Scheduled start of [pid]'s request [i]: all 0 for a closed-loop
      target, otherwise the open-loop arrival times of the trace. *)

  val step : ctx -> Qs_util.Prng.t -> pid:int -> i:int -> int
  (** Perform [pid]'s operation number [i] (counted in completed ops, so
      an aborted one is retried); returns its op-kind index. *)

  val to_list : ctx -> int list
  (** Authoritative contents, sorted (sequential context). *)

  val live_nodes : ctx -> int
  (** Arena nodes a leak-free teardown keeps (sequential context). *)

  val flush : ctx -> unit
  val report : t -> Qs_ds.Set_intf.report
  val violations : t -> int
  val outstanding : t -> int
end

module Make (R : Qs_intf.Runtime_intf.RUNTIME) : sig
  val cset_of : Cset.kind -> (module Cset.S)
  (** Each structure instantiated on [R]. *)

  val driver :
    ?history:Qs_verify.History.t * (unit -> int) ->
    t ->
    (module DRIVER)
  (** Each call applies the structure functors afresh, so node uids
      restart and a seeded run does not depend on earlier runs in the
      same process. [history] records every operation of a [Set] target
      (a [Kv] target ignores it): the invocation just before the operation
      runs and the response just after, inside the operation's process,
      each stamped with a read of the clock. *)
end
