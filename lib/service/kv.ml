(* Sharded, SMR-backed key-value service: point gets/puts/deletes on an
   array of hash-table shards plus a skip-list index for range scans —
   the composite the paper's robustness story is about (a long-lived
   service where one stalled or slow handler must not wedge reclamation
   for everyone), modelled on Folk's epoch-under-live-DB embedding.

   Layout. Each shard is an independent {!Qs_ds.Hashtable} and the index
   an independent {!Qs_ds.Skiplist}; every structure owns its own arena
   and its own reclamation-scheme instance, so the service runs
   [n_shards + 1] instances of the scheme under test side by side —
   retired nodes never cross shards, exactly like a sharded store whose
   partitions reclaim independently.

   Routing. The shard index comes from the same Fibonacci hash the table
   uses for buckets, but from the bit range just *below* the table's top
   byte: shard = bits [54-k, 54) for 2^k shards, buckets = bits [54, 62).
   Using disjoint well-mixed regions of the one multiplicative product
   keeps shard choice and bucket choice independent — carving both from
   the top bits would leave each shard's table using only a fraction of
   its buckets.

   Index consistency. The index is a secondary structure maintained
   *after* the authoritative table op commits (insert into the index only
   when the table insert won; same for deletes). Concurrent put/del races
   on the same key can therefore leave the index briefly — or, in a
   pathological interleaving, durably — out of sync with the table
   (a real-world secondary index, not a transactional one): scans are
   advisory counts, the table is the source of truth for membership, and
   the differential tests compare table contents. Ghost index entries
   are still live, protected nodes, so leak accounting is unaffected.

   Quiescence. A worker whose traffic never touches some shard would
   leave that shard's epoch-based scheme instance waiting on its
   quiescence announcement forever — a registered-but-silent process is
   indistinguishable from a stalled one (the exact failure mode the
   paper's fallback handles). Every [heartbeat_interval] requests the
   handle runs one round of {!Qs_ds.Hashtable.heartbeat} /
   {!Qs_ds.Skiplist.heartbeat} across all structures — the service
   analogue of Folk's sysmon epoch ticks. *)

module Make (R : Qs_intf.Runtime_intf.RUNTIME) = struct
  module Table = Qs_ds.Hashtable.Make (R)
  module Index = Qs_ds.Skiplist.Make (R)

  type t = {
    shards : Table.t array;
    index : Index.t;
    shard_shift : int;  (* hash bits below this position are dropped *)
    shard_mask : int;  (* n_shards - 1 *)
  }

  type ctx = {
    service : t;
    shard_ctxs : Table.ctx array;
    index_ctx : Index.ctx;
    mutable since_heartbeat : int;
  }

  let default_shards = 8

  let heartbeat_interval = 64

  (* Buckets per shard: the shards together provide the table's default
     bucket budget, with a floor so tiny services still hash. *)
  let buckets_per_shard ~n_shards =
    max 16 (Table.default_buckets * 4 / n_shards)

  let create ?(n_shards = default_shards) (cfg : Qs_ds.Set_intf.config) =
    if n_shards <= 0 || n_shards land (n_shards - 1) <> 0 then
      invalid_arg "Kv.create: n_shards must be a positive power of two";
    let k =
      let b = ref 0 and m = ref n_shards in
      while !m > 1 do incr b; m := !m lsr 1 done;
      !b
    in
    (* buckets take hash bits [54, 62); shards the [k] bits below *)
    let shard_shift = Qs_util.Fib_hash.hash_bits - 8 - k in
    if shard_shift < 0 then invalid_arg "Kv.create: too many shards";
    { shards =
        Array.init n_shards (fun _ ->
            Table.create_sized ~n_buckets:(buckets_per_shard ~n_shards) cfg);
      index = Index.create cfg;
      shard_shift;
      shard_mask = n_shards - 1 }

  let n_shards t = Array.length t.shards

  let shard_index t key =
    (Qs_util.Fib_hash.hash key lsr t.shard_shift) land t.shard_mask

  let register t ~pid =
    { service = t;
      shard_ctxs = Array.map (fun s -> Table.register s ~pid) t.shards;
      index_ctx = Index.register t.index ~pid;
      since_heartbeat = 0 }

  (* One bookkeeping round across every structure, every
     [heartbeat_interval] requests (counting is branch-plus-increment on
     the hot path; the round itself is off the common path). *)
  let maybe_heartbeat ctx =
    ctx.since_heartbeat <- ctx.since_heartbeat + 1;
    if ctx.since_heartbeat >= heartbeat_interval then begin
      ctx.since_heartbeat <- 0;
      Array.iter Table.heartbeat ctx.shard_ctxs;
      Index.heartbeat ctx.index_ctx
    end

  (* A get is the bucket's membership search, which allocates nothing:
     the bench pins the service's dominant path at zero heap words per
     request. *)
  let get ctx key =
    maybe_heartbeat ctx;
    Table.search ctx.shard_ctxs.(shard_index ctx.service key) key

  (* The table op is authoritative; the index is maintained only when the
     table op commits (see the consistency note above). *)
  let put ctx key =
    maybe_heartbeat ctx;
    let added = Table.insert ctx.shard_ctxs.(shard_index ctx.service key) key in
    if added then ignore (Index.insert ctx.index_ctx key);
    added

  let del ctx key =
    maybe_heartbeat ctx;
    let removed =
      Table.delete ctx.shard_ctxs.(shard_index ctx.service key) key
    in
    if removed then ignore (Index.delete ctx.index_ctx key);
    removed

  let scan ctx ~lo ~hi =
    maybe_heartbeat ctx;
    Index.range_count ctx.index_ctx ~lo ~hi

  (* Handler churn: a service worker leaving retires its SMR pid slot in
     every structure (limbo lists go to each instance's orphan pool);
     re-registering builds a fresh handle under the same pid. *)
  let unregister ctx =
    Array.iter Table.unregister ctx.shard_ctxs;
    Index.unregister ctx.index_ctx

  let flush ctx =
    Array.iter Table.flush ctx.shard_ctxs;
    Index.flush ctx.index_ctx

  (* Sequential-context inspection. *)

  let to_list ctx =
    Array.to_list ctx.shard_ctxs
    |> List.concat_map Table.to_list
    |> List.sort compare

  let size ctx = Array.fold_left (fun a c -> a + Table.size c) 0 ctx.shard_ctxs

  let index_size ctx = Index.size ctx.index_ctx

  (* Live nodes across all structures — the leak-accounting baseline
     (index ghosts are live nodes, so each structure counts its own). *)
  let live_nodes ctx = size ctx + index_size ctx

  let validate ctx =
    Array.iter Table.validate ctx.shard_ctxs;
    Index.validate ctx.index_ctx

  (* Aggregates over all scheme instances / arenas. *)

  let sum f_table f_index t =
    Array.fold_left (fun a s -> a + f_table s) (f_index t.index) t.shards

  let violations t = sum Table.violations Index.violations t
  let outstanding t = sum Table.outstanding Index.outstanding t
  let retired_count t = sum Table.retired_count Index.retired_count t

  (* Every shard and the index run their own scheme instance, so the
     service-wide scheme counters are sums (see [report] in kv.mli). *)
  let add_smr (a : Qs_smr.Smr_intf.stats) (b : Qs_smr.Smr_intf.stats) :
      Qs_smr.Smr_intf.stats =
    { retires = a.retires + b.retires;
      frees = a.frees + b.frees;
      scans = a.scans + b.scans;
      epoch_advances = a.epoch_advances + b.epoch_advances;
      fallback_entries = a.fallback_entries + b.fallback_entries;
      fallback_exits = a.fallback_exits + b.fallback_exits;
      fallback_ticks = a.fallback_ticks + b.fallback_ticks;
      evictions = a.evictions + b.evictions;
      neutralizations = a.neutralizations + b.neutralizations;
      retired_now = a.retired_now + b.retired_now;
      retired_peak = a.retired_peak + b.retired_peak;
      mode = (if a.mode = Fallback then Fallback else b.mode) }

  let report t : Qs_ds.Set_intf.report =
    let add (a : Qs_ds.Set_intf.report) (b : Qs_ds.Set_intf.report) =
      { Qs_ds.Set_intf.smr = add_smr a.smr b.smr;
        allocations = a.allocations + b.allocations;
        frees = a.frees + b.frees;
        outstanding = a.outstanding + b.outstanding;
        fresh_nodes = a.fresh_nodes + b.fresh_nodes;
        violations = a.violations + b.violations;
        double_frees = a.double_frees + b.double_frees }
    in
    Array.fold_left
      (fun acc s -> add acc (Table.report s))
      (Index.report t.index) t.shards
end
