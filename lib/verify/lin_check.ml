type verdict = Ok | Violation of int

(* Apply one completed operation to the boolean membership model. Returns
   the new state, or None if the recorded result is impossible. *)
let apply (e : History.entry) present =
  match (e.response, e.op) with
  | None, _ -> None
  | Some { result; _ }, History.Search -> if result = present then Some present else None
  | Some { result; _ }, History.Insert -> if result <> present then Some true else None
  | Some { result; _ }, History.Delete -> if result = present then Some false else None

type event = Inv of int | Res of int | Pending of History.op_kind

(* Just-in-time linearization over one key (Lowe, "Testing for
   linearizability"). Walk the invocations and responses in time order,
   invocations first at equal stamps, so op i may precede op j unless j
   responded before i was invoked. At the response of an op not yet
   linearized, linearize open ops, or let an unused pending update take
   effect, until it is. A pending insert or delete never responded: it may
   take effect at any point after its invocation, or never, so only how
   many of each kind are invoked and unused matters. Memoised on (event,
   linearized open ops, state, unused pending inserts, unused pending
   deletes). *)
let check_key ~present0 (entries : History.entry list) =
  let arr = Array.of_list entries in
  let events =
    List.concat
      (List.mapi
         (fun i (e : History.entry) ->
           match e.response with
           | Some r ->
             if r.res < e.inv then invalid_arg "Lin_check: res < inv";
             [ ((e.inv, 0), Inv i); ((r.res, 1), Res i) ]
           | None when e.op = History.Search -> [] (* constrains nothing *)
           | None -> [ ((e.inv, 0), Pending e.op) ])
         entries)
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd |> Array.of_list
  in
  let n = Array.length events in
  let seen = Hashtbl.create 1024 in
  (* [opn]: completed ops invoked and not yet responded; [lin]: the sorted
     subset of them already linearized *)
  let rec run ev opn lin present ins del =
    ev = n
    || (not (Hashtbl.mem seen (ev, lin, present, ins, del)))
       && begin
         Hashtbl.add seen (ev, lin, present, ins, del) ();
         match events.(ev) with
         | Inv i -> run (ev + 1) (i :: opn) lin present ins del
         | Pending History.Insert -> run (ev + 1) opn lin present (ins + 1) del
         | Pending _ -> run (ev + 1) opn lin present ins (del + 1)
         | Res i ->
           let opn' = List.filter (( <> ) i) opn in
           if List.mem i lin then
             run (ev + 1) opn' (List.filter (( <> ) i) lin) present ins del
           else
             (match apply arr.(i) present with
             | Some p -> run (ev + 1) opn' lin p ins del
             | None -> false)
             || List.exists
                  (fun j ->
                    (not (List.mem j lin))
                    &&
                    match apply arr.(j) present with
                    | Some p -> run ev opn (List.merge compare [ j ] lin) p ins del
                    | None -> false)
                  opn'
             (* a pending update is spent only where it changes the state *)
             || (ins > 0 && (not present) && run ev opn lin true (ins - 1) del)
             || (del > 0 && present && run ev opn lin false ins (del - 1))
       end
  in
  run 0 [] [] present0 0 0

module IM = Map.Make (Int)

let check_set ~initial (entries : History.entry list) =
  let by_key =
    List.fold_left
      (fun m (e : History.entry) ->
        IM.update e.key
          (function None -> Some [ e ] | Some es -> Some (e :: es))
          m)
      IM.empty entries
  in
  let initial_set = List.fold_left (fun s k -> IM.add k true s) IM.empty initial in
  let exception Found of int in
  try
    IM.iter
      (fun key es ->
        if not (check_key ~present0:(IM.mem key initial_set) es) then
          raise (Found key))
      by_key;
    Ok
  with Found k -> Violation k

let is_linearizable ~initial entries = check_set ~initial entries = Ok
