type op_kind = Search | Insert | Delete

type entry = {
  pid : int;
  op : op_kind;
  key : int;
  result : bool;
  inv : int;
  res : int;
}

type t = { logs : entry list ref array }

let create ~n = { logs = Array.init n (fun _ -> ref []) }

let record t ~pid ~op ~key ~inv ~res ~result =
  let log = t.logs.(pid) in
  log := { pid; op; key; result; inv; res } :: !log

let entries t =
  Array.fold_left (fun acc log -> List.rev_append !log acc) [] t.logs

let length t = Array.fold_left (fun acc log -> acc + List.length !log) 0 t.logs
