type op_kind = Search | Insert | Delete

type response = { res : int; result : bool }

type entry = {
  pid : int;
  op : op_kind;
  key : int;
  inv : int;
  response : response option;
}

type t = { logs : entry list ref array; open_ : entry option array }

let create ~n = { logs = Array.init n (fun _ -> ref []); open_ = Array.make n None }

let push t pid e =
  let log = t.logs.(pid) in
  log := e :: !log

let invoke t ~pid ~op ~key ~at =
  Option.iter (push t pid) t.open_.(pid);
  t.open_.(pid) <- Some { pid; op; key; inv = at; response = None }

let respond t ~pid ~result ~at =
  match t.open_.(pid) with
  | Some e ->
    push t pid { e with response = Some { res = at; result } };
    t.open_.(pid) <- None
  | None -> invalid_arg "History.respond: no open operation"

let entries t =
  Array.fold_left
    (fun acc log -> List.rev_append !log acc)
    (List.filter_map Fun.id (Array.to_list t.open_))
    t.logs
