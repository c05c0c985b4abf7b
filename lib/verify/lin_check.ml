type verdict = Ok | Violation of int | Too_large of int

(* Apply one operation to the boolean membership model. Returns the new
   state, or None if the recorded result is impossible. A pending update
   that takes effect leaves the key present (insert) or absent (delete),
   whatever it would have answered. *)
let apply (e : History.entry) present =
  match (e.response, e.op) with
  | None, History.Insert -> Some true
  | None, History.Delete -> Some false
  | None, History.Search -> Some present
  | Some { result; _ }, History.Search -> if result = present then Some present else None
  | Some { result; _ }, History.Insert -> if result <> present then Some true else None
  | Some { result; _ }, History.Delete -> if result = present then Some false else None

(* Wing-Gong linearizability over one key: search for a linear order of
   every completed entry and any subset of the pending ones, consistent with
   real time (an op may be linearized only if no other op still to be
   linearized responded before it was invoked), under which every recorded
   result matches the model. A pending op never responded, so it precedes
   nothing and may take effect at any point after its invocation, or never.
   Memoised on (linearized set, state). *)
let check_key ~present0 (entries : History.entry list) =
  let arr = Array.of_list entries in
  let n = Array.length arr in
  if n > 60 then invalid_arg "Lin_check.check_key: history too large";
  (* bit set in [completed]: the search is done once these are linearized *)
  let completed = ref 0 in
  let res =
    Array.mapi
      (fun i (e : History.entry) ->
        match e.response with
        | Some r ->
          if r.res < e.inv then invalid_arg "Lin_check: res < inv";
          completed := !completed lor (1 lsl i);
          r.res
        | None -> max_int)
      arr
  in
  let completed = !completed in
  let full = (1 lsl n) - 1 in
  let seen = Hashtbl.create 1024 in
  (* an op i is minimal in the remaining set if no other remaining op's
     response precedes i's invocation *)
  let minimal mask i =
    let rec go j =
      j >= n
      || ((j = i || mask land (1 lsl j) = 0 || res.(j) >= arr.(i).inv)
         && go (j + 1))
    in
    go 0
  in
  let rec search mask present =
    (* mask: bit set = still to linearize *)
    if mask land completed = 0 then true
    else begin
      let key = (mask, present) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        let rec try_ops i =
          if i >= n then false
          else if mask land (1 lsl i) <> 0 && minimal mask i then begin
            match apply arr.(i) present with
            | Some present' when search (mask lxor (1 lsl i)) present' -> true
            | _ -> try_ops (i + 1)
          end
          else try_ops (i + 1)
        in
        try_ops 0
      end
    end
  in
  search full present0

module IM = Map.Make (Int)

let check_set ~initial (entries : History.entry list) =
  let by_key =
    List.fold_left
      (fun m (e : History.entry) ->
        match (e.op, e.response) with
        | History.Search, None -> m (* a pending search constrains nothing *)
        | _ ->
          IM.update e.key
            (function None -> Some [ e ] | Some es -> Some (e :: es))
            m)
      IM.empty entries
  in
  let initial_set = List.fold_left (fun s k -> IM.add k true s) IM.empty initial in
  let exception Found of verdict in
  try
    IM.iter
      (fun key es ->
        if List.length es > 60 then raise (Found (Too_large key));
        let present0 = IM.mem key initial_set in
        if not (check_key ~present0 es) then raise (Found (Violation key)))
      by_key;
    Ok
  with Found v -> v

let is_linearizable ~initial entries =
  match check_set ~initial entries with
  | Ok -> true
  | Violation _ -> false
  | Too_large k ->
    invalid_arg (Printf.sprintf "Lin_check: sub-history for key %d too large" k)
