(* The hash table's exact-zero allocation pins: on the real runtime (QSense,
   debug checks off, after a warm-up) a search, an insert of a key already
   present and a delete of an absent key allocate no minor words. Each is
   one [Linked_list.find] pass through a bucket plus the scheme calls, so
   these pin the list's [find] as closure- and tuple-free. The mutating
   outcomes are pinned too: an insert of an absent key paired with the
   delete of that key allocates nothing either — the new node comes from
   the arena and every link it is CASed with is one of the canonical links
   its nodes were created with. *)

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

let suite =
  [ Alcotest.test_case "search allocates exactly zero" `Quick
      test_search_zero_alloc;
    Alcotest.test_case "insert of a present key allocates exactly zero" `Quick
      test_insert_present_zero_alloc;
    Alcotest.test_case "delete of an absent key allocates exactly zero" `Quick
      test_delete_absent_zero_alloc;
    Alcotest.test_case "insert+delete pair allocates exactly zero" `Quick
      test_insert_delete_zero_alloc ]
