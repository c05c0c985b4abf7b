(* The hash table's exact-zero allocation pins: on the real runtime (QSense,
   debug checks off, after a warm-up) a search, an insert of a key already
   present and a delete of an absent key allocate no minor words. Each is
   one [Linked_list.find] pass through a bucket plus the scheme calls, so
   these pin the list's [find] as closure- and tuple-free. The mutating
   outcomes are pinned too: an insert of an absent key paired with the
   delete of that key allocates nothing either — the new node comes from
   the arena and every link it is CASed with is a node or the mark box its
   node was created with.

   The node is pinned too: a list or hash-table node, with its mark box
   and its [next] cell, costs at most 10 heap words on real domains (15
   while each node also carried a boxed unmarked link). *)

module Hr = Qs_ds.Hashtable.Make (Qs_real.Real_runtime)

(* 1,024 keys (the even keys of [0, 2048)) behind a warmed-up context. *)
let warm_real_table () =
  Qs_real.Real_runtime.register_self 0;
  let cfg =
    { (Qs_ds.Set_intf.default_config ~n_processes:1
         ~scheme:Qs_smr.Scheme.Qsense)
      with Qs_ds.Set_intf.debug_checks = false }
  in
  let ctx = Hr.register (Hr.create cfg) ~pid:0 in
  for k = 0 to 1_023 do
    ignore (Hr.insert ctx (2 * k))
  done;
  ctx

let check_zero = Test_skiplist.check_zero

let test_search_zero_alloc () =
  let ctx = warm_real_table () in
  check_zero "search" (fun i -> ignore (Hr.search ctx (i land 2_047)))

let test_insert_present_zero_alloc () =
  let ctx = warm_real_table () in
  check_zero "insert of a present key" (fun i ->
      if Hr.insert ctx (2 * (i land 1_023)) then
        Alcotest.fail "insert of a present key succeeded")

let test_delete_absent_zero_alloc () =
  let ctx = warm_real_table () in
  check_zero "delete of an absent key" (fun i ->
      if Hr.delete ctx ((2 * (i land 1_023)) + 1) then
        Alcotest.fail "delete of an absent key succeeded")

(* Each step inserts an odd (absent) key and deletes it again: the node is
   retired, freed by a QSense scan and recycled by a later insert. *)
let test_insert_delete_zero_alloc () =
  let ctx = warm_real_table () in
  check_zero "insert+delete pair" (fun i ->
      let k = (2 * (i land 1_023)) + 1 in
      if not (Hr.insert ctx k && Hr.delete ctx k) then
        Alcotest.fail "insert+delete of an absent key had no effect")

(* Heap words per key: 3,000 inserts into an empty list and into an empty
   table, whose bucket sentinels exist before the first insert. *)
let test_words_per_node () =
  Qs_real.Real_runtime.register_self 0;
  let module Lr = Qs_ds.Linked_list.Make (Qs_real.Real_runtime) in
  let run f = f () in
  let list =
    Test_skiplist.words_per_node ~insert:Lr.insert ~run ~create:(fun () ->
        let set = Lr.create Test_skiplist.qsense_cfg in
        (set, Lr.register set ~pid:0))
  in
  let table =
    Test_skiplist.words_per_node ~insert:Hr.insert ~run ~create:(fun () ->
        let set = Hr.create Test_skiplist.qsense_cfg in
        (set, Hr.register set ~pid:0))
  in
  if list > 10. || table > 10. then
    Alcotest.failf
      "a node costs %.2f words in the list and %.2f in the hash table \
       (bound 10)"
      list table

let suite =
  [ Alcotest.test_case "search allocates exactly zero" `Quick
      test_search_zero_alloc;
    Alcotest.test_case "insert of a present key allocates exactly zero" `Quick
      test_insert_present_zero_alloc;
    Alcotest.test_case "delete of an absent key allocates exactly zero" `Quick
      test_delete_absent_zero_alloc;
    Alcotest.test_case "insert+delete pair allocates exactly zero" `Quick
      test_insert_delete_zero_alloc;
    Alcotest.test_case "words per node fit one node and its mark box" `Quick
      test_words_per_node ]
