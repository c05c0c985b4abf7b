(** The uniform view of a concurrent set the experiment harness drives.
    Every data structure in {!Qs_ds}, applied to a runtime, matches this
    signature. *)

module type S = sig
  type t
  type ctx

  val create : Qs_ds.Set_intf.config -> t

  val register : t -> pid:int -> ctx
  (** Obtain a per-process context. A pid slot vacated by {!unregister} may
      be re-registered later (worker churn). *)

  val unregister : ctx -> unit
  (** Dynamic membership: leave the computation. The context's SMR pid slot
      is retired — hazard pointers cleared, limbo lists donated to the
      scheme's orphan pool for survivors to adopt — and becomes available
      to a later {!register}. Call in process context, between operations;
      the context is dead afterwards (only {!flush} stays legal). *)

  val search : ctx -> int -> bool
  val insert : ctx -> int -> bool
  val delete : ctx -> int -> bool
  val to_list : ctx -> int list
  val size : ctx -> int
  val flush : ctx -> unit
  val report : t -> Qs_ds.Set_intf.report
  val violations : t -> int
  val retired_count : t -> int
  val outstanding : t -> int

  val nodes_per_key : int
  (** Arena nodes per live key: 1 for the lists and the skip list, 2 for the
      external BST (leaf + internal router). *)
end

type kind = List | Skiplist | Bst | Hashtable

let kind_to_string = function
  | List -> "list"
  | Skiplist -> "skiplist"
  | Bst -> "bst"
  | Hashtable -> "hashtable"

let nodes_per_key_of = function Bst -> 2 | List | Skiplist | Hashtable -> 1

let kind_of_string = function
  | "list" -> Some List
  | "skiplist" -> Some Skiplist
  | "bst" -> Some Bst
  | "hashtable" -> Some Hashtable
  | _ -> None
