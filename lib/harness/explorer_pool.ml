(* Parallel schedule exploration across real domains.

   Each worker domain claims case indices from a shared atomic counter and
   runs them with a fully isolated simulator instance: [Explorer.run_one]
   allocates its scheduler, arena, scheme and history per call, the sim
   runtime carries no domain-local or global mutable state (see Cell's
   per-cell uid counters), and every PRNG stream is derived from the case
   seed alone. Seed determinism therefore survives the fan-out by
   construction — the same case line produces a bit-identical outcome
   whether run solo or claimed by any worker of any pool — and the
   determinism is enforced by test/test_explorer_pool.ml.

   Results land in per-index slots (disjoint writes; the Domain.join at the
   end publishes them to the coordinator), so the output order is the input
   order no matter how the workers interleave. *)

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let map (type b) ?jobs (f : Explorer.case -> b) (cases : Explorer.case array) :
    b array =
  let n = Array.length cases in
  let jobs = min n (match jobs with Some j -> j | None -> default_jobs ()) in
  if jobs <= 1 then
    (* Solo reference path: identical claiming order, no domains. *)
    Array.map f cases
  else begin
    let results : b option array = Array.make n None in
    let next = Atomic.make 0 in
    let rec claim () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (f cases.(i));
        claim ()
      end
    in
    ignore (Qs_real.Domain_pool.run ~n:jobs (fun _ -> claim ()));
    Array.map Option.get results
  end

let outcomes ?jobs (cases : Explorer.case list) :
    (Explorer.case * Explorer.outcome) list =
  List.combine cases (Array.to_list (map ?jobs Explorer.run_one (Array.of_list cases)))
