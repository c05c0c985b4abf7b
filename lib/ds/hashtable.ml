(* Michael's lock-free hash table (SPAA 2002 — reference [24] of the paper):
   a fixed array of buckets, each an independent Harris-Michael linked list.
   All buckets share one arena, one reclamation-scheme instance and one tail
   sentinel, so retired nodes from every bucket flow through the same limbo
   lists/hazard-pointer machinery — exactly the configuration the original
   paper benchmarks.

   Keys are non-negative integers; the bucket index is a Fibonacci hash of
   the key, so adjacent keys spread across buckets. *)

module Make (R : Qs_intf.Runtime_intf.RUNTIME) = struct
  module L = Linked_list.Make (R)

  type node = L.node

  (* [shift] is the precomputed Fibonacci-hash shift for power-of-two
     bucket counts (take the top bits, where the multiplicative hash mixes),
     or -1 for the [mod] fallback on other sizes. *)
  type t = { list : L.t; buckets : node array; shift : int }

  type ctx = { table : t; lctx : L.ctx }

  let default_buckets = 256

  let hp_per_process = L.hp_per_process

  let create_sized ~n_buckets (cfg : Set_intf.config) =
    if n_buckets <= 0 then invalid_arg "Hashtable.create_sized: n_buckets";
    let list = L.create cfg in
    let shift =
      match Qs_util.Fib_hash.shift_for n_buckets with
      | Some s -> s
      | None -> -1
    in
    { list; buckets = Array.init n_buckets (fun _ -> L.new_bucket list); shift }

  let create cfg = create_sized ~n_buckets:default_buckets cfg

  let register t ~pid = { table = t; lctx = L.register t.list ~pid }

  let bucket_index t key =
    let h = Qs_util.Fib_hash.hash key in
    if t.shift >= 0 then h lsr t.shift else h mod Array.length t.buckets

  let bucket_of t key = t.buckets.(bucket_index t key)

  let search ctx key = L.search_in ctx.lctx ~bucket:(bucket_of ctx.table key) key

  let search_ro = search

  let insert ctx key = L.insert_in ctx.lctx ~bucket:(bucket_of ctx.table key) key
  let delete ctx key = L.delete_in ctx.lctx ~bucket:(bucket_of ctx.table key) key

  (* Sequential-context helpers. Contents are reported in sorted order so
     the result is comparable with the other set implementations. *)

  let to_list ctx =
    Array.fold_left
      (fun acc bucket -> List.rev_append (L.to_list_in ctx.lctx ~bucket) acc)
      [] ctx.table.buckets
    |> List.sort compare

  let size ctx = List.length (to_list ctx)

  (* Structural invariants (sequential context): every bucket chain is
     well-formed and only holds keys that hash to it. *)
  let validate ctx =
    Array.iteri
      (fun i bucket ->
        L.validate_in ctx.lctx ~bucket;
        List.iter
          (fun key ->
            if bucket_of ctx.table key != bucket then
              failwith (Printf.sprintf "hashtable: key %d in wrong bucket %d" key i))
          (L.to_list_in ctx.lctx ~bucket))
      ctx.table.buckets

  let heartbeat ctx = L.heartbeat ctx.lctx

  let unregister ctx = L.unregister ctx.lctx

  let flush ctx = L.flush ctx.lctx

  let report t = L.report t.list
  let retired_count t = L.retired_count t.list
  let violations t = L.violations t.list
  let outstanding t = L.outstanding t.list
  let nodes_per_key = L.nodes_per_key
end
