open Effect.Deep

type cost_model = {
  plain_op : int;
  atomic_load : int;
  atomic_store : int;
  cas : int;
  fence : int;
  remote_access : int;
  ctx_switch : int;
  stall_prob : float;
  stall_max : int;
}

let default_cost =
  { plain_op = 1;
    (* pointer-chasing loads miss the cache for structures larger than L1;
       this is the dominant per-node cost the fence is measured against *)
    atomic_load = 8;
    atomic_store = 3;
    cas = 12;
    fence = 60;
    remote_access = 8;
    ctx_switch = 200;
    stall_prob = 0.002;
    stall_max = 400 }

(* Scheduling strategies. [Fair] is the historical smallest-clock policy:
   cores advance together in virtual time, modelling true parallelism.
   [Pct] is probabilistic concurrency testing (Burckhardt et al.): each
   process gets a random priority, the highest-priority runnable process
   runs, and at [depth - 1] randomly chosen step counts the currently
   running process is demoted below everything else. Any schedule with a
   "bug depth" of [depth] is hit with probability >= 1/(n * steps^(depth-1))
   — far better than uniform random for ordering bugs. [Targeted] keeps
   Fair scheduling but stalls a chosen process the (skip+1)-th time it
   performs a given labelled hook (retire / scan / quiesce boundary). *)
type strategy =
  | Fair
  | Pct of { depth : int; seed : int }
  | Targeted of {
      victim : int;
      hook : Qs_intf.Runtime_intf.hook;
      skip : int;
      stall : int;
    }

(* Injected faults, applied when the target process's clock first reaches
   [at] (times are relative to the most recent {!reset_clocks}). All are
   deterministic: an explorer derives a fault plan from its seed and hands
   it to {!inject}. *)
type fault =
  | Stall_at of { pid : int; at : int; ticks : int }
      (* the process freezes for [ticks] without draining its store buffer
         (an in-core stall: cache miss storm, SMI, …); rooster wake-ups
         crossed during the stall still fire, as for sleeping processes *)
  | Crash_at of { pid : int; at : int }
      (* the process never executes again. Its final descheduling is a
         context switch, so its store buffer drains; its core stays up *)
  | Oversleep_spike of { pid : int; at : int; extra : int }
      (* the process's next rooster wake-up is delayed by [extra] ticks on
         top of the configured oversleep — possibly far beyond epsilon *)
  | Skew_burst of { pid : int; at : int; until_ : int; extra : int }
      (* the process's [now] reads [extra] ticks ahead during
         [at, until_) — a cross-core clock-skew burst *)
  | Churn_at of { pid : int; at : int; ticks : int }
      (* worker churn request: ask the process to leave the computation
         (unregister, donating its limbo lists), stay away for [ticks]
         virtual time, and re-register. The scheduler only queues the
         request — the worker body polls {!take_churn} between operations
         and performs the leave/rejoin itself, because registration is a
         property of the SMR scheme, not of the core. *)
  | Neutralize_at of { pid : int; at : int }
      (* a DEBRA+-style neutralization signal lands on the process: its
         in-flight operation is discontinued with
         [Runtime_intf.Neutralized] at its next delivery point — the first
         dispatch where the process has opted in via {!set_neutralizable}
         (a masked signal stays pending, like a blocked POSIX signal).
         Delivery replaces the suspended effect: the pending memory access
         never executes, which is what makes restarting safe after the
         scheme has reclaimed past the victim. The store buffer does NOT
         drain (an async signal is not a context switch). *)

type config = {
  n_cores : int;
  seed : int;
  cost : cost_model;
  store_buffer_capacity : int;
  rooster_interval : int option;
  rooster_oversleep : int;
  strategy : strategy;
  pct_horizon : int;
}

let default_config ~n_cores ~seed =
  { n_cores;
    seed;
    cost = default_cost;
    store_buffer_capacity = 64;
    rooster_interval = None;
    rooster_oversleep = 0;
    strategy = Fair;
    pct_horizon = 200_000 }

type pstate = Idle | Ready | Sleeping of int | Done | Failed of exn | Crashed

(* A suspended effect, waiting for its process to be scheduled — flattened
   into scratch fields on [proc] instead of an allocated descriptor. The
   [effc] case stores the payload (cell, value, amount) into the scratch
   slots, tags the shape in [r_tag], and returns a PREALLOCATED handler
   option whose closure only stashes the continuation: performing a hot
   effect allocates nothing beyond the fiber suspension the effect
   machinery itself requires. (The old representations allocated, per step,
   either a closure chain + option, or — after the first flattening — a
   GADT node + fresh closure + option: ~10 words/step of pure overhead.)

   The scratch slots are [Obj.t]-typed because one set of slots serves
   every effect shape; each tag maps to exactly one effect constructor, so
   [run_resume] knows the stored types exactly and the [Obj] casts only
   erase what the matching [effc] case wrote. *)
let rt_none = 0

let rt_read = 1

let rt_write = 2

let rt_aget = 3

let rt_aset = 4

let rt_cas = 5

let rt_faa = 6

let rt_fence = 7

let rt_now = 8

let rt_self = 9

let rt_unit = 10 (* yield, and the wake-up of [E_sleep_until] *)

let rt_charge = 11

type proc = {
  pid : int;
  mutable clock : int;
  (* Store buffer: a preallocated FIFO ring of (cell, value) stores, sized
     capacity + 1 for the transient push-then-overflow state. See the
     store-buffer section below. *)
  buf_cell : Cell.plain array; (* target cells *)
  buf_val : int array; (* stored values *)
  mutable buf_head : int;
  mutable buf_len : int;
  mutable buf_seq : int;
      (* stores pushed so far: the ring's oldest entry has sequence number
         [buf_seq - buf_len], its newest [buf_seq - 1] *)
  mutable state : pstate;
  (* Suspended-effect scratch slots (see the [rt_*] tags above). *)
  mutable r_tag : int;
  mutable r_k : Obj.t; (* the captured continuation *)
  mutable r_cell : Obj.t; (* cell operand *)
  mutable r_v : Obj.t; (* value operand (aset / cas-desired) *)
  mutable r_v2 : Obj.t; (* cas-expected *)
  mutable r_n : int; (* plain write value / faa delta / charge amount *)
  mutable h_defer : ((Obj.t, unit) continuation -> unit) option;
      (* preallocated handler returned by [effc] for deferred effects;
         its closure stores the continuation into [r_k], nothing else *)
  mutable next_rooster : int;
  prng : Qs_util.Prng.t;
  mutable flushes : int;
  mutable extra_skew : int; (* skew-burst injection: active while ... *)
  mutable extra_skew_until : int; (* ... clock < extra_skew_until *)
  mutable pending_faults : fault list; (* sorted by trigger time *)
  mutable churn_pending : int list;
      (* fired [Churn_at] downtimes awaiting pickup by the worker body via
         {!take_churn}; meta-level state, polling it costs no effects *)
  mutable poison_pending : bool;
      (* a neutralization signal posted ([Neutralize_at] fault or
         [E_neutralize] from a scheme) and not yet delivered *)
  mutable neutralizable : bool;
      (* has the process opted in to signal delivery ({!set_neutralizable})?
         While false the signal stays pending, like a masked POSIX signal.
         While [poison_pending] the process never runs inline (see [step]),
         so delivery timing is identical on both execution paths. *)
  hook_counts : int array; (* per hook kind, for the Targeted strategy *)
}

(* PCT bookkeeping: [prio.(pid)] is the process's current priority (higher
   runs first); [change_points] the remaining demotion step counts, sorted;
   [demote_next] the next (ever lower) priority handed out by a demotion. *)
type pct_state = {
  prio : int array;
  mutable change_points : int list;
  mutable demote_next : int;
}

type t = {
  cfg : config;
  procs : proc array;
  prng : Qs_util.Prng.t;
  pct : pct_state option;
  (* Flat copies of the hot [cfg.cost] fields: one load instead of three
     ([t] -> [cfg] -> [cost] -> field) on every accounted step. *)
  c_plain : int;
  c_aload : int;
  c_astore : int;
  c_cas : int;
  c_fence : int;
  c_remote : int;
  c_stall_max : int;
  stall_thresh : int;
      (* stall_prob rescaled to [0, max_int]: the per-step stall roll is an
         integer compare on bits of the step's one draw, no float
         arithmetic. 0 = never. *)
  buf_capacity : int;
  mutable last_scheduled : int; (* pid of the last process stepped (PCT) *)
  mutable armed_faults : fault list; (* master copy, re-armed by reset_clocks *)
  mutable crashes : int;
  mutable rooster_fires : int;
  mutable steps : int;
  mutable failures : (int * exn) list;
  mutable pick_lim : int;
  mutable pick_lim_steps : int;
      (* Set by the pick that chose the process about to step: the minimum
         clock among the OTHER active processes (second-min of the scan),
         [max_int] under [exec] (which steps its one process
         unconditionally), [min_int] when inline execution is illegal for
         the dispatch (ties, a mid-run [spawn]). See the [op_*] fast
         paths. *)
  clocks : int array;
      (* [procs.(i).clock] while the process is active (Ready or Sleeping),
         [max_int] otherwise. Written by [advance_to] / [advance_rooster] /
         [reset_clocks] and at the (rare) state transitions; the per-step
         picks scan this one flat array instead of every [proc] record, and
         an inactive process never wins a fair pick. *)
  mutable sink : Qs_intf.Runtime_intf.sink option;
      (* trace sink for E_emit / rooster wake-ups; None = tracing off *)
}

type _ Effect.t +=
  | E_atomic_get : 'a Cell.t -> 'a Effect.t
  | E_atomic_set : 'a Cell.t * 'a -> unit Effect.t
  | E_cas : 'a Cell.t * 'a * 'a -> bool Effect.t
  | E_faa : int Cell.t * int -> int Effect.t
  | E_read : Cell.plain -> int Effect.t
  | E_write : Cell.plain * int -> unit Effect.t
  | E_fence : unit Effect.t
  | E_now : int Effect.t
  | E_self : int Effect.t
  | E_yield : unit Effect.t
  | E_sleep_until : int -> unit Effect.t
  | E_charge : int -> unit Effect.t
  | E_hook : Qs_intf.Runtime_intf.hook -> unit Effect.t
  | E_emit : Qs_intf.Runtime_intf.event * int * int -> unit Effect.t
  | E_neutralize : int -> unit Effect.t
  | E_set_neutralizable : bool -> bool Effect.t

let hook_index : Qs_intf.Runtime_intf.hook -> int = function
  | Hook_retire -> 0
  | Hook_scan -> 1
  | Hook_quiesce -> 2

(* Rooster oversleep, uniform in [0, rooster_oversleep]. Skips the PRNG
   draw entirely when the bound is 0 so that pre-existing seeded schedules
   are bit-for-bit unchanged. *)
let draw_oversleep cfg prng =
  if cfg.rooster_oversleep = 0 then 0
  else Qs_util.Prng.int prng (cfg.rooster_oversleep + 1)

(* In-module copy of {!Qs_util.Prng}'s SplitMix advance — same constants,
   same stream (Prng's stream-identity tests pin the constants; keep in
   sync). The scheduler draws on every accounted step and on fair-pick
   ties, and dune's dev profile compiles with [-opaque], which hides
   [Prng]'s implementation from this module, so the cross-module
   [Prng.next] call is never inlined; this local copy is. *)
let sm_gamma = 0x1E3779B97F4A7C15

let sm_mix_a = 0x2F58476D1CE4E5B9

let sm_mix_b = 0x14D049BB133111EB

(* --- owned-schedule cursor (see the op_* fast paths) --------------------

   [step] publishes the scheduler and process whose fiber is currently
   executing; the [op_*] entry points consult it to decide whether an
   operation may run inline, without suspending. Domain-local because a
   pool runs one isolated simulator per worker domain; the slots are
   [Obj.t] so that per-step publication stores no allocated option. *)
type cursor = {
  mutable live : bool;
      (* true only inside [step]'s dispatch. MUST stay the first field:
         [my_cursor] may read it out of the DLS slot's uninitialized
         sentinel (a [ref 0]), whose field 0 is [0] — i.e. [false], the
         correct answer. *)
  mutable cur_t : Obj.t; (* the scheduler driving the running fiber *)
  mutable cur_p : Obj.t; (* its currently running process *)
  mutable lim : int;
      (* Fast-path clock limit, set per dispatch: the minimum clock of
         every OTHER active process (fair mode), [max_int] under PCT or
         [exec], lowered to the trigger time of the process's next pending
         fault, and [min_int] when inline execution is off the table for
         this dispatch (a pending signal). Nothing can move another
         process's clock while this fiber runs — only [step] does, and
         only this process is stepping — so [p.clock < lim] is an exact
         strict-minimality test for the whole inline run, and no fault can
         come due inside it. A mid-run [spawn] activates a new process and
         resets both limits. *)
  mutable lim_steps : int;
      (* Fast-path step limit: under PCT the running process keeps the
         highest priority — and so keeps being picked, with no draws —
         until the next change point fires, which happens at the first
         pick with [t.steps >= cp]. Inline ops are legal exactly while
         [t.steps < cp]. [max_int] in fair mode and under [exec],
         [min_int] when disabled. *)
}

let cursor_key : cursor Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { live = false;
        cur_t = Obj.repr 0;
        cur_p = Obj.repr 0;
        lim = min_int;
        lim_steps = min_int })

(* [Domain.DLS.get] is a cross-module call (never inlined under the dev
   profile's [-opaque]) plus a growth check — ~10ns on every operation,
   paid even when the fast path misses. The primitive behind it compiles
   to a single register read, and a DLS
   key is [(slot_index, initializer)] (pinned by OCaml 5.1, which the
   toolchain image bakes in), so the hot entry points read the slot
   directly. The run drivers ([run_all]/[exec]/[spawn]) still go through
   [Domain.DLS.get], which initializes the slot; until that has happened
   in a domain the slot is out of range or holds the stdlib sentinel, and
   [my_cursor] answers with a dead cursor either way. *)
external dls_state : unit -> Obj.t array = "%dls_get"

let cursor_idx : int = fst (Obj.magic cursor_key : int * Obj.t)

let dead_cursor : cursor =
  { live = false;
    cur_t = Obj.repr 0;
    cur_p = Obj.repr 0;
    lim = min_int;
    lim_steps = min_int }

let[@inline] my_cursor () : cursor =
  let st = dls_state () in
  if cursor_idx < Array.length st then
    (Obj.magic (Array.unsafe_get st cursor_idx) : cursor)
  else dead_cursor

let[@inline] draw (g : Qs_util.Prng.t) =
  let s = g.state + sm_gamma in
  g.state <- s;
  let z = (s lxor (s lsr 30)) * sm_mix_a in
  let z = (z lxor (z lsr 27)) * sm_mix_b in
  z lxor (z lsr 31)

let obj_unit : Obj.t = Obj.repr 0

(* Filler for empty store-buffer slots; never committed or written. *)
let no_cell = Cell.make_plain 0

(* Preallocated handler for the synchronous effects (E_hook / E_emit): all
   their work happens in the [effc] body, so the returned closure only
   resumes — it captures nothing and one copy serves every process. *)
let sync_handler : ((unit, unit) continuation -> unit) option =
  Some (fun k -> continue k ())

let create cfg =
  let prng = Qs_util.Prng.create ~seed:cfg.seed in
  let make_proc pid =
    let p_prng = Qs_util.Prng.split prng in
    let next_rooster =
      match cfg.rooster_interval with
      | None -> max_int
      | Some iv -> iv + draw_oversleep cfg p_prng
    in
    let p =
      { pid;
        clock = 0;
        buf_cell = Array.make (cfg.store_buffer_capacity + 1) no_cell;
        buf_val = Array.make (cfg.store_buffer_capacity + 1) 0;
        buf_head = 0;
        buf_len = 0;
        buf_seq = 0;
        state = Idle;
        r_tag = rt_none;
        r_k = obj_unit;
        r_cell = obj_unit;
        r_v = obj_unit;
        r_v2 = obj_unit;
        r_n = 0;
        h_defer = None;
        next_rooster;
        prng = p_prng;
        flushes = 0;
        extra_skew = 0;
        extra_skew_until = 0;
        pending_faults = [];
        churn_pending = [];
        poison_pending = false;
        neutralizable = false;
        hook_counts = Array.make 3 0 }
    in
    p.h_defer <- Some (fun k -> p.r_k <- Obj.repr k);
    p
  in
  let pct =
    match cfg.strategy with
    | Pct { depth; seed } ->
      let pct_prng = Qs_util.Prng.create ~seed in
      let prio = Array.init cfg.n_cores (fun i -> i) in
      Qs_util.Prng.shuffle pct_prng prio;
      let points =
        List.init (max 0 (depth - 1)) (fun _ ->
            Qs_util.Prng.int pct_prng (max 1 cfg.pct_horizon))
      in
      Some
        { prio;
          change_points = List.sort compare points;
          demote_next = -1 }
    | Fair | Targeted _ -> None
  in
  let stall_p = cfg.cost.stall_prob in
  { cfg;
    procs = Array.init cfg.n_cores make_proc;
    prng;
    pct;
    c_plain = cfg.cost.plain_op;
    c_aload = cfg.cost.atomic_load;
    c_astore = cfg.cost.atomic_store;
    c_cas = cfg.cost.cas;
    c_fence = cfg.cost.fence;
    c_remote = cfg.cost.remote_access;
    c_stall_max = cfg.cost.stall_max;
    stall_thresh =
      (if stall_p <= 0. then 0
       else if stall_p >= 1. then max_int
       else int_of_float (stall_p *. float_of_int max_int));
    buf_capacity = cfg.store_buffer_capacity;
    last_scheduled = -1;
    armed_faults = [];
    crashes = 0;
    rooster_fires = 0;
    steps = 0;
    failures = [];
    pick_lim = min_int;
    pick_lim_steps = min_int;
    clocks = Array.make cfg.n_cores max_int;
    sink = None }

let set_sink t s = t.sink <- s

(* Active = Ready or Sleeping (the states [pick_*] may schedule). The
   [clocks] mirror is switched at every transition into or out of them;
   transitions between Ready and Sleeping don't touch it. *)
let[@inline] set_active (t : t) (p : proc) = t.clocks.(p.pid) <- p.clock
let[@inline] clear_active (t : t) (p : proc) = t.clocks.(p.pid) <- max_int

(* Forward a trace event to the installed sink. Stamped with the process's
   raw core clock (no skew): trace timelines should be comparable across
   processes, and skew is a property of [now] reads, not of when things
   happened. *)
let emit_to_sink (t : t) (p : proc) ev a b =
  match t.sink with
  | None -> ()
  | Some s -> s.record ~pid:p.pid ~time:p.clock ~ev ~a ~b

(* Post a neutralization signal to [pid]. Meta-level state only: no virtual
   time, no PRNG draw, no memory effect — posting is schedule-neutral, like
   [emit]. If the target is the process currently running a fiber, its
   cursor's inline limits are cleared so that its next operation suspends
   (and hence passes the delivery check in [step]) on both execution
   paths. *)
let post_poison (t : t) pid =
  if pid >= 0 && pid < Array.length t.procs then begin
    let v = t.procs.(pid) in
    match v.state with
    | Ready | Sleeping _ ->
      v.poison_pending <- true;
      let cur = my_cursor () in
      if cur.live && Obj.repr v == cur.cur_p then begin
        cur.lim <- min_int;
        cur.lim_steps <- min_int
      end
    | Idle | Done | Failed _ | Crashed -> ()
  end

(* --- store buffers ---------------------------------------------------------

   Only plain int cells are ever buffered (atomic operations drain and act
   on main memory), so a process's buffer is a ring of (cell, int value)
   pairs and storing a value is a plain [int] store: no write barrier, no
   allocation. A store's uid is its sequence number in its writer's ring,
   implicit in the entry's position (see [buf_seq]). Pushing a store also
   makes it its cell's newest pending entry; committing the ring's oldest
   store is O(1) (see cell.mli for the representation). *)

let[@inline] buf_push (p : proc) (c : Cell.plain) v =
  let arr = p.buf_cell in
  let i = p.buf_head + p.buf_len in
  let i = if i >= Array.length arr then i - Array.length arr else i in
  (* A slot keeps its cell after the entry commits, so the ring pays no
     clearing store, and a store that repeats the slot's cell (the same
     hazard-pointer slot written over and over) pays no barrier either. *)
  if Array.unsafe_get arr i != c then Array.unsafe_set arr i c;
  Array.unsafe_set p.buf_val i v;
  c.s_pid <- p.pid;
  c.s_seq <- p.buf_seq;
  c.s_val <- v;
  c.n_pending <- c.n_pending + 1;
  p.buf_seq <- p.buf_seq + 1;
  p.buf_len <- p.buf_len + 1

let[@inline] buf_pop_commit (p : proc) =
  let h = p.buf_head in
  let c = Array.unsafe_get p.buf_cell h in
  let seq = p.buf_seq - p.buf_len in
  c.value <- Array.unsafe_get p.buf_val h;
  c.p_owner <- p.pid;
  c.n_pending <- c.n_pending - 1;
  if c.s_seq = seq && c.s_pid = p.pid then c.s_pid <- -1;
  let h' = h + 1 in
  p.buf_head <- (if h' >= Array.length p.buf_cell then 0 else h');
  p.buf_len <- p.buf_len - 1

(* [p]'s newest store to [c] among the ring's entries at offsets [0, j]
   from the head, scanned newest first; main memory when there is none. *)
let rec scan_own (p : proc) (c : Cell.plain) j =
  if j < 0 then c.value
  else
    let i = p.buf_head + j in
    let n = Array.length p.buf_cell in
    let i = if i >= n then i - n else i in
    if Array.unsafe_get p.buf_cell i == c then Array.unsafe_get p.buf_val i
    else scan_own p c (j - 1)

(* TSO store-to-load forwarding: [p]'s newest pending store to [c], else
   main memory. The cell's newest entry answers for its own writer. When
   that entry accounts for every pending one (or none is pending), no
   other process has a store to [c] in flight. Otherwise an entry is hidden
   — behind another writer's newer one, or behind a newest entry that has
   already committed — and [p] may own it: only then is its ring
   scanned. *)
let[@inline] read_own (p : proc) (c : Cell.plain) =
  if c.s_pid = p.pid then c.s_val
  else if c.n_pending = 0 || (c.n_pending = 1 && c.s_pid >= 0) then c.value
  else scan_own p c (p.buf_len - 1)

let flush_buffer p =
  if p.buf_len > 0 then begin
    while p.buf_len > 0 do
      buf_pop_commit p
    done;
    p.flushes <- p.flushes + 1
  end

(* Advance [p]'s clock to [target], firing every rooster wake-up crossed on
   the way. A rooster wake-up forces a context switch on [p]'s core, which
   drains [p]'s store buffer — the visibility guarantee Cadence needs.
   [next_rooster] is [max_int] when roosters are off, so the hot path is a
   single compare; the rooster-crossing loop lives out of line. *)
let rec advance_rooster (t : t) (p : proc) target =
  match t.cfg.rooster_interval with
  | Some iv when p.next_rooster <= target ->
    p.clock <- max p.clock p.next_rooster;
    flush_buffer p;
    t.rooster_fires <- t.rooster_fires + 1;
    emit_to_sink t p Qs_intf.Runtime_intf.Ev_rooster_wake (-1) (-1);
    p.clock <- p.clock + t.cfg.cost.ctx_switch;
    p.next_rooster <- p.next_rooster + iv + draw_oversleep t.cfg p.prng;
    advance_rooster t p target
  | _ ->
    if target > p.clock then p.clock <- target;
    t.clocks.(p.pid) <- p.clock

let[@inline] advance_to (t : t) (p : proc) target =
  if p.next_rooster <= target then advance_rooster t p target
  else if target > p.clock then begin
    p.clock <- target;
    Array.unsafe_set t.clocks p.pid target
  end

(* Charge one step: ONE SplitMix draw serves both per-step rolls. Bit 0 is
   the jitter coin (0 or 1 tick); bits 1..62 are the stall roll, whose
   range [0, max_int] matches the [stall_thresh] scale exactly (63-bit
   ints: [d lsr 1] spans [0, 2^62-1] = [0, max_int]). SplitMix output bits
   are independent, so the two decisions stay uncorrelated. Occasional
   long stalls model cache misses, interrupts and preemptions: the
   asynchrony that lets one process race far ahead of another. *)
let[@inline] account (t : t) (p : proc) cost =
  let d = draw p.prng in
  let stall =
    if d lsr 1 < t.stall_thresh then Qs_util.Prng.int p.prng (t.c_stall_max + 1)
    else 0
  in
  advance_to t p (p.clock + cost + (d land 1) + stall)

(* Cache-coherence cost model: accessing a line last written by another core
   costs a remote miss. Reads downgrade the line to shared; an atomic write,
   or the commit of a buffered one ([buf_pop_commit]), re-acquires
   ownership. *)
let[@inline] read_extra (t : t) (p : proc) (c : _ Cell.t) =
  let o = c.owner in
  if o <> p.pid && o <> -1 then begin
    c.owner <- -1;
    t.c_remote
  end
  else 0

let[@inline] plain_read_extra (t : t) (p : proc) (c : Cell.plain) =
  let o = c.p_owner in
  if o <> p.pid && o <> -1 then begin
    c.p_owner <- -1;
    t.c_remote
  end
  else 0

let[@inline] write_extra (t : t) (p : proc) (c : _ Cell.t) =
  let o = c.owner in
  let extra = if o <> p.pid && o <> -1 then t.c_remote else 0 in
  c.owner <- p.pid;
  extra

(* --- operation bodies -----------------------------------------------------

   Each simulated operation's semantics, written once. [run_resume] (the
   suspended path) and the [op_*] entry points (the inline path) both call
   these after the step preliminary (the step count), so the two
   paths agree by construction: same accounting draws, then the same
   memory update. *)

let[@inline] do_read (t : t) (p : proc) (c : Cell.plain) =
  account t p (t.c_plain + plain_read_extra t p c);
  read_own p c

let[@inline] do_write (t : t) (p : proc) (c : Cell.plain) v =
  account t p t.c_plain;
  buf_push p c v;
  if p.buf_len > t.buf_capacity then buf_pop_commit p

let[@inline] do_get (t : t) (p : proc) (c : 'a Cell.t) : 'a =
  account t p (t.c_aload + read_extra t p c);
  c.committed

let[@inline] do_set (t : t) (p : proc) (c : 'a Cell.t) (v : 'a) =
  flush_buffer p;
  account t p (t.c_astore + write_extra t p c);
  c.committed <- v

let[@inline] do_cas (t : t) (p : proc) (c : 'a Cell.t) (expected : 'a) desired =
  flush_buffer p;
  account t p (t.c_cas + write_extra t p c);
  let ok = c.committed == expected in
  if ok then c.committed <- desired;
  ok

let[@inline] do_faa (t : t) (p : proc) (c : int Cell.t) n =
  flush_buffer p;
  account t p (t.c_cas + write_extra t p c);
  let old = c.committed in
  c.committed <- old + n;
  old

let[@inline] do_fence (t : t) (p : proc) =
  flush_buffer p;
  account t p t.c_fence

let[@inline] do_now (t : t) (p : proc) =
  account t p t.c_plain;
  let burst = if p.clock < p.extra_skew_until then p.extra_skew else 0 in
  p.clock + burst

(* A hook is a free annotation — no [account], no PRNG draw, no step — so
   it must not perturb existing seeded schedules. The only observable
   action is the [Targeted] stall, which advances the victim's clock in
   place (as an injected in-core stall would). *)
let do_hook (t : t) (p : proc) hk =
  let i = hook_index hk in
  p.hook_counts.(i) <- p.hook_counts.(i) + 1;
  match t.cfg.strategy with
  | Targeted { victim; hook; skip; stall }
    when victim = p.pid && hook = hk && p.hook_counts.(i) = skip + 1 ->
    advance_rooster t p (p.clock + stall)
  | _ -> ()

let[@inline] swap_neutralizable (p : proc) v =
  let prev = p.neutralizable in
  p.neutralizable <- v;
  prev

let run_fiber (t : t) (p : proc) f =
  match_with f ()
    { retc =
        (fun () ->
          p.state <- Done;
          clear_active t p);
      exnc =
        (fun e ->
          p.state <- Failed e;
          clear_active t p;
          t.failures <- (p.pid, e) :: t.failures);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          (* Hot constructors first: the match compiles to a comparison
             chain over extensible-variant tags, and E_read / E_write /
             E_atomic_get dominate every workload profile. Each deferred
             case stashes its payload into the scratch slots and returns
             the process's preallocated [h_defer] — the whole dispatch
             allocates nothing. The [Obj.magic] re-types the handler's
             continuation argument from [Obj.t] to this effect's answer
             type [a]; [run_resume] undoes the erasure tag by tag. Side
             effects (E_sleep_until's state change, the synchronous
             E_hook / E_emit bodies) run here in the [effc] body, which the
             machinery calls at the same point it would call the returned
             closure, so the observable order is unchanged. *)
          match eff with
          | E_read c ->
            p.r_tag <- rt_read;
            p.r_cell <- Obj.repr c;
            (Obj.magic p.h_defer : ((a, unit) continuation -> unit) option)
          | E_write (c, v) ->
            p.r_tag <- rt_write;
            p.r_cell <- Obj.repr c;
            p.r_n <- v;
            (Obj.magic p.h_defer : ((a, unit) continuation -> unit) option)
          | E_atomic_get c ->
            p.r_tag <- rt_aget;
            p.r_cell <- Obj.repr c;
            (Obj.magic p.h_defer : ((a, unit) continuation -> unit) option)
          | E_atomic_set (c, v) ->
            p.r_tag <- rt_aset;
            p.r_cell <- Obj.repr c;
            p.r_v <- Obj.repr v;
            (Obj.magic p.h_defer : ((a, unit) continuation -> unit) option)
          | E_cas (c, expected, desired) ->
            p.r_tag <- rt_cas;
            p.r_cell <- Obj.repr c;
            p.r_v2 <- Obj.repr expected;
            p.r_v <- Obj.repr desired;
            (Obj.magic p.h_defer : ((a, unit) continuation -> unit) option)
          | E_faa (c, n) ->
            p.r_tag <- rt_faa;
            p.r_cell <- Obj.repr c;
            p.r_n <- n;
            (Obj.magic p.h_defer : ((a, unit) continuation -> unit) option)
          | E_now ->
            p.r_tag <- rt_now;
            (Obj.magic p.h_defer : ((a, unit) continuation -> unit) option)
          | E_fence ->
            p.r_tag <- rt_fence;
            (Obj.magic p.h_defer : ((a, unit) continuation -> unit) option)
          | E_hook hk ->
            (* Handled synchronously: no descriptor, no step. *)
            do_hook t p hk;
            (Obj.magic sync_handler : ((a, unit) continuation -> unit) option)
          | E_emit (ev, pa, pb) ->
            (* Handled synchronously, exactly like [E_hook]: no descriptor,
               no [account], no PRNG draw, no step. Emitting a trace event
               costs no virtual time and is not a preemption point, so
               enabling tracing cannot perturb a seeded schedule. *)
            emit_to_sink t p ev pa pb;
            (Obj.magic sync_handler : ((a, unit) continuation -> unit) option)
          | E_neutralize target ->
            (* Synchronous, like [E_emit]: posting a signal is meta-level
               state, free of virtual time and randomness. Delivery to the
               target happens at ITS next dispatch (see [step]). *)
            post_poison t target;
            (Obj.magic sync_handler : ((a, unit) continuation -> unit) option)
          | E_set_neutralizable v ->
            (* Synchronous and meta-level, like [E_neutralize]; only the
               slow path (no live dispatch) comes here. *)
            let prev = swap_neutralizable p v in
            Some (fun k -> continue k prev)
          | E_self ->
            p.r_tag <- rt_self;
            (Obj.magic p.h_defer : ((a, unit) continuation -> unit) option)
          | E_yield ->
            p.r_tag <- rt_unit;
            (Obj.magic p.h_defer : ((a, unit) continuation -> unit) option)
          | E_sleep_until target ->
            p.state <- Sleeping target;
            p.r_tag <- rt_unit;
            (Obj.magic p.h_defer : ((a, unit) continuation -> unit) option)
          | E_charge n ->
            p.r_tag <- rt_charge;
            p.r_n <- n;
            (Obj.magic p.h_defer : ((a, unit) continuation -> unit) option)
          | _ -> None) }

(* Execute one suspended effect descriptor: the operation's body, then
   [continue] with its answer. Reentrant: [continue] runs the fiber up to
   its next effect, which refills the scratch slots (or finishes via
   retc/exnc) — so the body, which reads the slots, runs before
   [continue]. The [Obj.obj] casts restore exactly the types the
   matching [effc] case erased: each tag maps to one effect constructor
   with a fixed answer type (aget: the cell's element, erased to [Obj.t] on
   both sides; cas: bool; read/faa/now/self: int; the rest: unit).
   The match is a dense jump table over the [rt_*] tags. *)
let run_resume (t : t) (p : proc) tag =
  match tag with
  | 1 (* rt_read *) ->
    let k : (int, unit) continuation = Obj.obj p.r_k in
    continue k (do_read t p (Obj.obj p.r_cell : Cell.plain))
  | 2 (* rt_write *) ->
    let k : (unit, unit) continuation = Obj.obj p.r_k in
    continue k (do_write t p (Obj.obj p.r_cell : Cell.plain) p.r_n)
  | 3 (* rt_aget *) ->
    let k : (Obj.t, unit) continuation = Obj.obj p.r_k in
    continue k (do_get t p (Obj.obj p.r_cell : Obj.t Cell.t))
  | 4 (* rt_aset *) ->
    let k : (unit, unit) continuation = Obj.obj p.r_k in
    continue k (do_set t p (Obj.obj p.r_cell : Obj.t Cell.t) (Obj.obj p.r_v))
  | 5 (* rt_cas *) ->
    let k : (bool, unit) continuation = Obj.obj p.r_k in
    continue k
      (do_cas t p (Obj.obj p.r_cell : Obj.t Cell.t) (Obj.obj p.r_v2) (Obj.obj p.r_v))
  | 6 (* rt_faa *) ->
    let k : (int, unit) continuation = Obj.obj p.r_k in
    continue k (do_faa t p (Obj.obj p.r_cell : int Cell.t) p.r_n)
  | 7 (* rt_fence *) ->
    let k : (unit, unit) continuation = Obj.obj p.r_k in
    continue k (do_fence t p)
  | 8 (* rt_now *) ->
    let k : (int, unit) continuation = Obj.obj p.r_k in
    continue k (do_now t p)
  | 9 (* rt_self *) ->
    let k : (int, unit) continuation = Obj.obj p.r_k in
    continue k p.pid
  | 10 (* rt_unit *) ->
    let k : (unit, unit) continuation = Obj.obj p.r_k in
    continue k ()
  | 11 (* rt_charge *) ->
    let k : (unit, unit) continuation = Obj.obj p.r_k in
    continue k (account t p p.r_n)
  | _ (* rt_none *) -> ()

(* A sleeping core advances in bounded quanta so that rooster wake-ups fire
   at (approximately) the right virtual time relative to the other cores. *)
let sleep_quantum = 512

let fault_pid = function
  | Stall_at { pid; _ }
  | Crash_at { pid; _ }
  | Oversleep_spike { pid; _ }
  | Skew_burst { pid; _ }
  | Churn_at { pid; _ }
  | Neutralize_at { pid; _ } ->
    pid

let fault_at = function
  | Stall_at { at; _ }
  | Crash_at { at; _ }
  | Oversleep_spike { at; _ }
  | Skew_burst { at; _ }
  | Churn_at { at; _ }
  | Neutralize_at { at; _ } ->
    at

(* Fire every pending fault whose trigger time has been reached. A stall is
   an in-core freeze: the clock advances (roosters crossed on the way still
   fire, as they do for sleeping processes) but the store buffer does NOT
   drain. A crash is a final descheduling: the core context-switches away,
   so the buffer DOES drain — modelling anything short of power loss, which
   is the faithful x86 behaviour (a dead thread's store buffer does not
   keep values hidden forever). *)
let apply_faults (t : t) (p : proc) =
  let rec loop () =
    match p.pending_faults with
    | f :: rest when fault_at f <= p.clock && p.state <> Crashed ->
      p.pending_faults <- rest;
      (match f with
      | Stall_at { ticks; _ } -> advance_to t p (p.clock + ticks)
      | Crash_at _ ->
        flush_buffer p;
        t.crashes <- t.crashes + 1;
        p.state <- Crashed;
        clear_active t p
      | Oversleep_spike { extra; _ } ->
        if p.next_rooster <> max_int then p.next_rooster <- p.next_rooster + extra
      | Skew_burst { until_; extra; _ } ->
        p.extra_skew <- extra;
        p.extra_skew_until <- until_
      | Churn_at { ticks; _ } -> p.churn_pending <- p.churn_pending @ [ ticks ]
      | Neutralize_at _ ->
        (* The signal lands now; delivery happens in [step]'s Ready branch
           once the process is inside an interruptible region. Observable
           in the trace sink so the explorer's coverage sees
           fault-injected neutralizations too. *)
        emit_to_sink t p Qs_intf.Runtime_intf.Ev_neutralize p.pid (-1);
        post_poison t p.pid);
      loop ()
    | _ -> ()
  in
  loop ()

let step (t : t) (cur : cursor) (p : proc) =
  t.steps <- t.steps + 1;
  (* Constructor match, not [<> []]: the polymorphic compare is a C call,
     paid on every step. *)
  (match p.pending_faults with [] -> () | _ :: _ -> apply_faults t p);
  match p.state with
  | Sleeping target ->
    advance_to t p (min target (p.clock + sleep_quantum));
    if p.clock >= target then p.state <- Ready
  | Ready ->
    let tag = p.r_tag in
    if tag = rt_none then begin
      p.state <- Done;
      clear_active t p
    end
    else if p.poison_pending && p.neutralizable then begin
      (* Deliver the neutralization signal: the suspended effect never
         executes — its continuation is discontinued with [Neutralized],
         unwinding the victim's operation (data structures release
         unpublished nodes on the way out) so the caller can restart it.
         No virtual time, no drain: an async signal is not a context
         switch. *)
      p.r_tag <- rt_none;
      p.poison_pending <- false;
      let k : (Obj.t, unit) continuation = Obj.obj p.r_k in
      cur.cur_t <- Obj.repr t;
      cur.cur_p <- Obj.repr p;
      cur.lim <- min_int;
      cur.lim_steps <- min_int;
      cur.live <- true;
      discontinue k Qs_intf.Runtime_intf.Neutralized;
      cur.live <- false
    end
    else begin
      p.r_tag <- rt_none;
      (* Pointer stores into the cursor are write barriers; a run of
         dispatches to one process repeats them for nothing. *)
      if cur.cur_t != Obj.repr t then cur.cur_t <- Obj.repr t;
      if cur.cur_p != Obj.repr p then cur.cur_p <- Obj.repr p;
      (* A fault still pending after [apply_faults] has a trigger time
         above [p.clock], and [apply_faults] fires a fault exactly when the
         clock has reached it: inline ops may run while [p.clock] stays
         below the earliest one (the list is sorted), and the first op at
         or past it suspends, so the next [step] fires it. A
         pending-but-masked poison disables inline execution: delivery is
         checked here, at dispatch, and the suspended and inline paths
         must reach that check at the same operations. *)
      if p.poison_pending then begin
        cur.lim <- min_int;
        cur.lim_steps <- min_int
      end
      else begin
        cur.lim <-
          (match p.pending_faults with
          | [] -> t.pick_lim
          | f :: _ ->
            (* not [min]: the polymorphic compare is a C call *)
            let at = fault_at f in
            if at < t.pick_lim then at else t.pick_lim);
        cur.lim_steps <- t.pick_lim_steps
      end;
      cur.live <- true;
      run_resume t p tag;
      cur.live <- false
    end
  | Idle | Done | Failed _ | Crashed -> ()

(* --- owned-schedule fast paths ------------------------------------------

   Deferred-resume semantics says an operation executes when the scheduler
   NEXT schedules its process, with every other process free to interleave
   in between. But when the running process's clock is strictly below every
   other active clock, the fair pick is a foregone conclusion: it consumes
   no randomness (unique minimum — see [pick_fair]) and returns the same
   process. In that case performing the effect, parking the fiber, and
   re-picking is pure overhead (~46ns of fiber switching per operation on
   the reference box), so the [op_*] entry points execute the operation
   inline instead: [step]'s preliminary ([claim_step]), then the same
   body [run_resume] would run, skipping only the suspension. Outcomes are
   bit-identical either way; test/test_sim.ml pins this.

   Guards: a pick proven ahead of time — a strict (no-tie) fair minimum, a
   PCT step count short of the next change point, or [exec] — a clock
   still short of the running process's next fault ([step] would fire
   it), and no pending neutralization signal. *)

let[@inline] cur_t (cur : cursor) : t = Obj.obj cur.cur_t
let[@inline] cur_p (cur : cursor) : proc = Obj.obj cur.cur_p

(* [step]'s preliminary for the running process (the step count) when its
   next pick is proven to return it; [false], with nothing done, when the
   operation must suspend. [live] is read first: on a dead cursor the other
   fields may not exist (see [my_cursor]). *)
let[@inline] claim_step (cur : cursor) =
  if not cur.live then false
  else
    let t = cur_t cur and p = cur_p cur in
    if p.clock < cur.lim && t.steps < cur.lim_steps then begin
      t.steps <- t.steps + 1;
      true
    end
    else false

let op_read (c : Cell.plain) : int =
  let cur = my_cursor () in
  if claim_step cur then do_read (cur_t cur) (cur_p cur) c
  else Effect.perform (E_read c)

let op_write (c : Cell.plain) (v : int) : unit =
  let cur = my_cursor () in
  if claim_step cur then do_write (cur_t cur) (cur_p cur) c v
  else Effect.perform (E_write (c, v))

let op_get (c : 'a Cell.t) : 'a =
  let cur = my_cursor () in
  if claim_step cur then do_get (cur_t cur) (cur_p cur) c
  else Effect.perform (E_atomic_get c)

let op_set (c : 'a Cell.t) (v : 'a) : unit =
  let cur = my_cursor () in
  if claim_step cur then do_set (cur_t cur) (cur_p cur) c v
  else Effect.perform (E_atomic_set (c, v))

let op_cas (c : 'a Cell.t) (expected : 'a) (desired : 'a) : bool =
  let cur = my_cursor () in
  if claim_step cur then do_cas (cur_t cur) (cur_p cur) c expected desired
  else Effect.perform (E_cas (c, expected, desired))

let op_faa (c : int Cell.t) (n : int) : int =
  let cur = my_cursor () in
  if claim_step cur then do_faa (cur_t cur) (cur_p cur) c n
  else Effect.perform (E_faa (c, n))

let op_fence () : unit =
  let cur = my_cursor () in
  if claim_step cur then do_fence (cur_t cur) (cur_p cur)
  else Effect.perform E_fence

let op_now () : int =
  let cur = my_cursor () in
  if claim_step cur then do_now (cur_t cur) (cur_p cur)
  else Effect.perform E_now

let op_self () : int =
  let cur = my_cursor () in
  if claim_step cur then (cur_p cur).pid else Effect.perform E_self

let op_charge (n : int) : unit =
  let cur = my_cursor () in
  if claim_step cur then account (cur_t cur) (cur_p cur) n
  else Effect.perform (E_charge n)

let op_yield () : unit =
  let cur = my_cursor () in
  if claim_step cur then () else Effect.perform E_yield

(* Hooks and trace emissions are not preemption points: their [effc] bodies
   run synchronously, consume no step, no virtual time and no randomness,
   and resume immediately. So whenever ANY dispatch is live — strategy,
   faults and clock position irrelevant — they can run inline; the effect
   round trip bought nothing but ~46ns of fiber switching. *)

let op_hook (hk : Qs_intf.Runtime_intf.hook) : unit =
  let cur = my_cursor () in
  if cur.live then do_hook (cur_t cur) (cur_p cur) hk
  else Effect.perform (E_hook hk)

let op_emit (ev : Qs_intf.Runtime_intf.event) (pa : int) (pb : int) : unit =
  let cur = my_cursor () in
  if cur.live then emit_to_sink (cur_t cur) (cur_p cur) ev pa pb
  else Effect.perform (E_emit (ev, pa, pb))

let op_neutralize (target : int) : unit =
  let cur = my_cursor () in
  if cur.live then post_poison (cur_t cur) target
  else Effect.perform (E_neutralize target)

let op_set_neutralizable (v : bool) : bool =
  let cur = my_cursor () in
  if cur.live then swap_neutralizable (cur_p cur) v
  else Effect.perform (E_set_neutralizable v)

let active p = match p.state with Ready | Sleeping _ -> true | _ -> false

(* Historical smallest-clock policy: cores advance together in virtual
   time, ties broken by a PRNG coin — true-parallelism modelling. Returns
   the index of the chosen process, -1 when none is runnable. The scan
   reads only the flat [clocks] mirror, where an inactive process sits at
   [max_int] and so never wins. Tie-breaking is uniform among the processes
   at the minimal clock, paid for with a single draw — and only when there
   IS a tie. A unique minimum consumes no randomness at all, which is what
   lets the owned-schedule fast path above prove a pick's outcome without
   running it. *)
let rec nth_at (clocks : int array) c k i =
  if Array.unsafe_get clocks i <> c then nth_at clocks c k (i + 1)
  else if k = 0 then i
  else nth_at clocks c (k - 1) (i + 1)

let pick_fair t =
  let clocks = t.clocks in
  let best = ref (-1) and m1 = ref max_int and m2 = ref max_int in
  let ties = ref 0 in
  for i = 0 to Array.length clocks - 1 do
    let c = Array.unsafe_get clocks i in
    if c < !m1 then begin
      m2 := !m1;
      m1 := c;
      best := i;
      ties := 1
    end
    else begin
      if c < !m2 then m2 := c;
      if c = !m1 then incr ties
    end
  done;
  (* Second-lowest active clock doubles as the inline-execution limit for
     the chosen process: while its clock stays strictly below every other
     active clock, re-running this pick would choose it again without
     drawing. A tie makes [m2] equal the minimum itself, which correctly
     disables the fast path. *)
  t.pick_lim <- !m2;
  t.pick_lim_steps <- max_int;
  if !best < 0 || !ties = 1 then !best
  else nth_at clocks !m1 (Qs_util.Prng.int t.prng !ties) 0

(* The highest-priority active process, -1 when none. *)
let pct_argmax t (ps : pct_state) =
  let best = ref (-1) and top = ref min_int in
  for i = 0 to Array.length t.clocks - 1 do
    if Array.unsafe_get t.clocks i < max_int && ps.prio.(i) > !top then begin
      best := i;
      top := ps.prio.(i)
    end
  done;
  !best

(* PCT: run the highest-priority runnable process; at each due change
   point, demote it below every priority handed out so far. *)
let pick_pct t (ps : pct_state) =
  (* Between change points the argmax is pinned to the running process, so
     its ops may run inline until the step counter reaches the next change
     point (clock position is irrelevant to a priority pick). *)
  t.pick_lim <- max_int;
  t.pick_lim_steps <-
    (match ps.change_points with cp :: _ -> cp | [] -> max_int);
  (match ps.change_points with
  | cp :: rest when t.steps >= cp ->
    ps.change_points <- rest;
    let i = pct_argmax t ps in
    if i >= 0 then begin
      ps.prio.(i) <- ps.demote_next;
      ps.demote_next <- ps.demote_next - 1
    end
  | _ -> ());
  let i = pct_argmax t ps in
  (* The schedule is serialized: when control moves to a different
     process, the one being descheduled takes a context switch, which
     drains its store buffer. Without this flush a deprioritized process's
     HP publication could stay invisible for unbounded virtual time — a
     behaviour real hardware cannot produce (context switches drain
     buffers), yielding false-positive UAF reports against schemes whose
     safety argument (Cadence's!) rests exactly on that drain. *)
  if i >= 0 && t.last_scheduled <> i then begin
    if t.last_scheduled >= 0 then flush_buffer t.procs.(t.last_scheduled);
    t.last_scheduled <- i
  end;
  i

let pick t = match t.pct with Some ps -> pick_pct t ps | None -> pick_fair t

let spawn t ~pid f =
  let p = t.procs.(pid) in
  p.state <- Ready;
  set_active t p;
  p.r_tag <- rt_none;
  (* The fiber runs here until its first suspension — possibly from inside
     another process's step (dynamic membership spawns mid-run). Its
     initial effects must take the suspension path, and the spawner's
     cursor must come back intact. *)
  let cur = Domain.DLS.get cursor_key in
  let saved = cur.live in
  cur.live <- false;
  run_fiber t p f;
  (* The new process is active now; any limit cached for the spawner's
     dispatch (or an enclosing [exec] loop) is stale, so inline execution
     stays off until the next pick. *)
  cur.lim <- min_int;
  cur.lim_steps <- min_int;
  t.pick_lim <- min_int;
  t.pick_lim_steps <- min_int;
  cur.live <- saved

let run_all t =
  let cur = Domain.DLS.get cursor_key in
  let rec loop () =
    let i = pick t in
    if i >= 0 then begin
      step t cur (Array.unsafe_get t.procs i);
      loop ()
    end
  in
  loop ();
  (* Commit leftovers so post-run inspection sees final memory. *)
  Array.iter flush_buffer t.procs

let exec t ~pid f =
  let p = t.procs.(pid) in
  let result = ref None in
  spawn t ~pid (fun () -> result := Some (f ()));
  let cur = Domain.DLS.get cursor_key in
  (* [exec] steps its one process unconditionally — no pick, no fairness —
     so every operation is inline-eligible regardless of other clocks.
     (A mid-run [spawn] resets this; see [spawn].) *)
  t.pick_lim <- max_int;
  t.pick_lim_steps <- max_int;
  while active p do
    step t cur p
  done;
  match p.state with
  | Failed e ->
    t.failures <- List.filter (fun (pid', _) -> pid' <> pid) t.failures;
    p.state <- Idle;
    raise e
  | _ -> (
    match !result with
    | Some r -> r
    | None -> failwith "Scheduler.exec: fiber did not complete")

(* Distribute the armed master fault list to per-process pending queues,
   sorted by trigger time. *)
let rearm_faults t =
  Array.iter
    (fun p ->
      p.pending_faults <- [];
      p.churn_pending <- [];
      p.poison_pending <- false;
      p.neutralizable <- false)
    t.procs;
  List.iter
    (fun f ->
      let pid = fault_pid f in
      if pid >= 0 && pid < Array.length t.procs then begin
        let p = t.procs.(pid) in
        p.pending_faults <- f :: p.pending_faults
      end)
    t.armed_faults;
  Array.iter
    (fun p ->
      p.pending_faults <-
        List.stable_sort (fun a b -> compare (fault_at a) (fault_at b)) p.pending_faults)
    t.procs

let inject t faults =
  t.armed_faults <- faults;
  rearm_faults t

(* Zero every core clock (e.g. after a single-process pre-fill phase, so
   that experiment time starts when the workers do). Store buffers are
   drained first; rooster schedules restart; injected faults re-arm against
   the fresh time base; hook counts restart (so a [Targeted] skip counts
   from the worker phase, not the fill). *)
let reset_clocks t =
  Array.iter
    (fun p ->
      flush_buffer p;
      p.clock <- 0;
      if active p then set_active t p;
      p.extra_skew <- 0;
      p.extra_skew_until <- 0;
      Array.fill p.hook_counts 0 (Array.length p.hook_counts) 0;
      p.next_rooster <-
        (match t.cfg.rooster_interval with
        | None -> max_int
        | Some iv -> iv + draw_oversleep t.cfg p.prng))
    t.procs;
  rearm_faults t

let failures t = List.rev t.failures
let clock_of t ~pid = t.procs.(pid).clock

let max_clock t = Array.fold_left (fun acc p -> max acc p.clock) 0 t.procs
let flush_count t ~pid = t.procs.(pid).flushes
let rooster_fires t = t.rooster_fires
let steps t = t.steps
let crashes t = t.crashes
let crashed t ~pid = t.procs.(pid).state = Crashed

(* Pop the oldest fired-but-unconsumed churn request for this process.
   Plain OCaml state: polling from inside a worker body performs no effect
   and costs no virtual time, so churn-free runs (and the polling itself)
   cannot perturb seeded schedules. *)
let take_churn t ~pid =
  let p = t.procs.(pid) in
  match p.churn_pending with
  | [] -> None
  | ticks :: rest ->
    p.churn_pending <- rest;
    Some ticks

(* Opt in to (or mask) neutralization-signal delivery for this process.
   Plain meta-level state, exactly like {!take_churn}: toggling it performs
   no effect and costs no virtual time, so worker loops can bracket every
   operation without perturbing seeded schedules. *)
let set_neutralizable t ~pid v = t.procs.(pid).neutralizable <- v
let hook_count t ~pid h = t.procs.(pid).hook_counts.(hook_index h)
