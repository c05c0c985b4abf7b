(* Metric lines for people and the one-line JSON result for machines. *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

(* What one run returns: the correctness verdict, how many requests it
   issued, how many disagreed or failed, and its metric values by name
   (units come from {!Layers}). *)
type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let line fmt = Printf.printf (fmt ^^ "\n%!")

let print_metric ?(note = "") m =
  line "  %-28s %16.6f %-12s%s" m.name m.value m.unit_
    (if note = "" then "" else "  " ^ note)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Report.json_number: non-finite metric"

let json_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " fields)
