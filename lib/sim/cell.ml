type 'a t = {
  mutable committed : 'a;
  mutable owner : int;
}

let make v = { committed = v; owner = -1 }

let read_committed c = c.committed

type plain = {
  mutable value : int;
  mutable p_owner : int;
  mutable s_pid : int;
  mutable s_seq : int;
  mutable s_val : int;
  mutable n_pending : int;
}

let make_plain v =
  { value = v; p_owner = -1; s_pid = -1; s_seq = 0; s_val = 0; n_pending = 0 }

let plain_committed c = c.value

let pending_count c = c.n_pending
