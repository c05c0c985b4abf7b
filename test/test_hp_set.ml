(* Properties of the hot-path machinery introduced for allocation-free
   retire/scan:

   - the production hash scan set ([Hp_array.snapshot_into] /
     [protects_set]) agrees with a list model (read every slot's id, test
     membership with [List.mem]) on random hazard-pointer assignments,
     holds exactly the published non-dummy ids, and [clear] resets a row
     to the dummy's id;
   - [Qs_util.Int_set] agrees with a [Set.Make(Int)] model under random
     add/mem/reset sequences, including negative keys and growth;
   - the scan membership path (snapshot + probes) is allocation-free in
     steady state, measured with [Gc.minor_words] on the real runtime
     after a warm-up. (Retire's steady state is pinned at exactly zero
     words by [Test_bags] and [Test_rivals].) *)

module R = Qs_real.Real_runtime

type fake = { fid : int; mutable freed : int }

module N = struct
  type t = fake

  let id n = n.fid
end

module Hp = Qs_smr.Hp_array.Make (R) (N)

(* --- membership set vs list model ----------------------------------------- *)

(* The list model: every non-dummy slot, read the same way the production
   snapshot reads it. Slots hold node ids, so the model is the list of ids
   read, and membership is [List.mem] on a node's id. *)
let list_snapshot (hp : Hp.t) =
  Array.fold_left
    (fun acc row ->
      List.fold_left
        (fun acc slot ->
          let id = R.read row slot in
          if id <> hp.Hp.dummy_id then id :: acc else acc)
        acc
        (List.init hp.Hp.k Fun.id))
    [] hp.Hp.slots

(* A random HP table: n x k slots, each either the dummy or a pool node
   (duplicates across slots allowed), published the way the schemes'
   [assign_hp] does it. *)
let table_gen =
  QCheck.Gen.(
    triple (int_range 1 8) (int_range 1 8)
      (list_size (int_range 0 80) (int_range (-1) 31)))

let dummy = { fid = -42; freed = 0 }
let pool = Array.init 32 (fun i -> { fid = 100 + i; freed = 0 })

(* Publishes [assignments] and returns the table with, per slot, the node
   last published there (the dummy when none). *)
let publish_random (n, k, assignments) =
  let hp = Hp.create ~n ~k ~dummy in
  let last = Array.make_matrix n k dummy in
  List.iteri
    (fun i choice ->
      let pid = i mod n and slot = i / n mod k in
      let node = if choice < 0 then dummy else pool.(choice) in
      R.write (Hp.row hp ~pid) slot (N.id node);
      last.(pid).(slot) <- node)
    assignments;
  (hp, last)

(* The hash set and the list model are compared on every pool node. *)
let prop_scan_set_matches_reference =
  QCheck.Test.make ~name:"scan set agrees with list snapshot/protects"
    ~count:500
    (QCheck.make table_gen)
    (fun table ->
      let hp, _ = publish_random table in
      let model = list_snapshot hp in
      let set = Hp.scan_set hp in
      Hp.snapshot_into hp set;
      Array.for_all
        (fun node -> Hp.protects_set set node = List.mem (N.id node) model)
        pool
      && not (Hp.protects_set set dummy))

(* The snapshot holds exactly the ids of the non-dummy nodes last
   published in each slot: publishing the dummy reads as empty. *)
let prop_snapshot_is_published_ids =
  QCheck.Test.make ~name:"snapshot holds exactly the published non-dummy ids"
    ~count:500
    (QCheck.make table_gen)
    (fun table ->
      let hp, last = publish_random table in
      let expected =
        Array.fold_left
          (Array.fold_left (fun acc node ->
               if node == dummy then acc else N.id node :: acc))
          [] last
        |> List.sort_uniq compare
      in
      let set = Hp.scan_set hp in
      Hp.snapshot_into hp set;
      Qs_util.Int_set.to_list set = expected)

(* [clear] leaves the cleared row reading the dummy's id in every slot and
   leaves the other rows as they were. *)
let prop_clear_reads_dummy =
  QCheck.Test.make ~name:"clear leaves the row reading the dummy id"
    ~count:200
    (QCheck.make QCheck.Gen.(pair table_gen small_nat))
    (fun (((n, k, _) as table), victim) ->
      let hp, last = publish_random table in
      let victim = victim mod n in
      Hp.clear hp ~pid:victim;
      let ok = ref true in
      for pid = 0 to n - 1 do
        for slot = 0 to k - 1 do
          let expected = if pid = victim then dummy else last.(pid).(slot) in
          if R.read (Hp.row hp ~pid) slot <> N.id expected then ok := false
        done
      done;
      !ok)

(* Clearing a process's row removes its nodes from the next snapshot. *)
let prop_clear_removes_from_set =
  QCheck.Test.make ~name:"scan set after clear drops the cleared row"
    ~count:200
    QCheck.(pair (int_range 1 8) (int_range 1 8))
    (fun (n, k) ->
      let hp = Hp.create ~n ~k ~dummy in
      let node = { fid = 7; freed = 0 } in
      for pid = 0 to n - 1 do
        for slot = 0 to k - 1 do
          R.write (Hp.row hp ~pid) slot (N.id node)
        done
      done;
      for pid = 0 to n - 1 do
        Hp.clear hp ~pid
      done;
      let set = Hp.scan_set hp in
      Hp.snapshot_into hp set;
      not (Hp.protects_set set node))

(* --- Int_set vs a Set.Make(Int) model ------------------------------------ *)

module IS = Set.Make (Int)

(* Random command sequences over one reusable set: Add k, Mem k (checked
   against the model), Reset. Keys span negatives and a range wide enough
   to force growth past the initial capacity. *)
let prop_int_set_matches_model =
  let cmd_gen =
    QCheck.Gen.(
      frequency
        [ (6, map (fun k -> `Add k) (int_range (-50) 200));
          (6, map (fun k -> `Mem k) (int_range (-50) 200));
          (1, return `Reset) ])
  in
  QCheck.Test.make ~name:"Int_set agrees with Set.Make(Int) model" ~count:500
    (QCheck.make QCheck.Gen.(list_size (int_range 0 300) cmd_gen))
    (fun cmds ->
      let s = Qs_util.Int_set.create ~capacity:4 () in
      let model = ref IS.empty in
      List.for_all
        (fun cmd ->
          match cmd with
          | `Add k ->
            Qs_util.Int_set.add s k;
            model := IS.add k !model;
            Qs_util.Int_set.length s = IS.cardinal !model
          | `Mem k -> Qs_util.Int_set.mem s k = IS.mem k !model
          | `Reset ->
            Qs_util.Int_set.reset s;
            model := IS.empty;
            Qs_util.Int_set.length s = 0)
        cmds
      && Qs_util.Int_set.to_list s = IS.elements !model)

(* Reset must actually forget: stale generations never resurface, even
   after a growth rehash in a later generation. *)
let prop_int_set_reset_forgets =
  QCheck.Test.make ~name:"Int_set reset forgets across generations" ~count:200
    QCheck.(pair (small_list small_int) (small_list small_int))
    (fun (first, second) ->
      let s = Qs_util.Int_set.create ~capacity:4 () in
      List.iter (Qs_util.Int_set.add s) first;
      Qs_util.Int_set.reset s;
      List.iter (Qs_util.Int_set.add s) second;
      List.for_all
        (fun k -> List.mem k second || not (Qs_util.Int_set.mem s k))
        first)

(* --- steady-state allocation-freedom of the scan membership path --------- *)

(* The scan membership path itself — snapshot the N×K slots into the hash
   set, then probe it — performs zero allocation once the set exists. This
   pins the Int_set fast path: [reset] is a generation bump, [add]/[mem]
   probe preallocated arrays, and the preallocation covers the full N·K
   population so no rehash can fire. *)
let test_scan_set_alloc_free () =
  let n = 8 and k = 8 in
  let dummy = { fid = -1; freed = 0 } in
  let hp = Hp.create ~n ~k ~dummy in
  let nodes = Array.init (n * k) (fun i -> { fid = i; freed = 0 }) in
  for pid = 0 to n - 1 do
    for slot = 0 to k - 1 do
      R.write (Hp.row hp ~pid) slot (N.id nodes.((pid * k) + slot))
    done
  done;
  let set = Hp.scan_set hp in
  let hits = ref 0 in
  let round () =
    Hp.snapshot_into hp set;
    for i = 0 to Array.length nodes - 1 do
      if Hp.protects_set set nodes.(i) then incr hits
    done
  in
  round () (* warm-up *);
  Gc.minor ();
  let rounds = 1_000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    round ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf
       "snapshot_into + protects_set allocates (%.0f words / %d rounds)"
       words rounds)
    true (words < 1_000.);
  Alcotest.(check int) "every probe hits" (rounds + 1) (!hits / (n * k))

let suite =
  [ QCheck_alcotest.to_alcotest prop_scan_set_matches_reference;
    QCheck_alcotest.to_alcotest prop_snapshot_is_published_ids;
    QCheck_alcotest.to_alcotest prop_clear_reads_dummy;
    QCheck_alcotest.to_alcotest prop_clear_removes_from_set;
    QCheck_alcotest.to_alcotest prop_int_set_matches_model;
    QCheck_alcotest.to_alcotest prop_int_set_reset_forgets;
    Alcotest.test_case "scan membership path is allocation-free" `Quick
      test_scan_set_alloc_free
  ]
