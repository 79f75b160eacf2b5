(* dune runtest check of the benchmark, on shortened windows (--smoke):

   - every workload runs, passes its correctness checks and prints every
     end-to-end metric of BENCHMARK.json, with its unit and a finite
     value (and, traced, every per-layer metric);
   - the same seed run twice, in two processes, gives identical simulated
     metrics and alloc_words_per_op;
   - the traced pass gives the same simulated metrics as the untraced one.

   Usage: smoke.exe MAIN_EXE BENCHMARK_JSON *)

let read_file f = In_channel.with_open_bin f In_channel.input_all

(* Every match of [re] in [s] from [pos] up to the end of the JSON array
   that starts there, as the list of its two groups. BENCHMARK.json
   writes each metric and workload as one flat object, so the first "]"
   closes the section. *)
let pairs re s key =
  let start = Str.search_forward (Str.regexp_string (Printf.sprintf "%S" key)) s 0 in
  let stop = String.index_from s start ']' in
  let re = Str.regexp re in
  let rec go pos acc =
    match Str.search_forward re s pos with
    | p when p < stop ->
      go (Str.match_end ()) ((Str.matched_group 1 s, Str.matched_group 2 s) :: acc)
    | _ | (exception Not_found) -> List.rev acc
  in
  go start []

let metric_re = {|"name": *"\([^"]*\)", *"unit": *"\([^"]*\)"|}
let workload_re = {|"name": *"\([^"]*\)", *"\(why\)"|}

let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> String.split_on_char '\n' (String.trim out)
  | _ -> failwith (Printf.sprintf "%s %s failed:\n%s" exe (String.concat " " args) out)

(* "name value unit" lines, as printed before the JSON line. *)
let printed lines =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ name; v; unit ] when l.[0] <> '#' -> Some (name, (v, unit))
      | _ -> None)
    lines

(* The run passed its checks and printed exactly the metrics [want] (plus
   the traced pass's "traced." copies), with their units and finite
   values. *)
let check ~w lines want =
  let last = List.nth lines (List.length lines - 1) in
  let contains sub =
    try ignore (Str.search_forward (Str.regexp_string sub) last 0); true
    with Not_found -> false
  in
  if not (contains {|"correct": true|}) then failwith (w ^ ": incorrect result: " ^ last);
  let got =
    List.filter (fun (n, _) -> not (String.starts_with ~prefix:"traced." n)) (printed lines)
  in
  if List.sort compare (List.map fst got) <> List.sort compare (List.map fst want)
  then failwith (w ^ ": printed metric names differ from BENCHMARK.json");
  List.iter
    (fun (name, unit) ->
      let v, u = List.assoc name got in
      if u <> unit then failwith (w ^ ": unit of " ^ name);
      if not (Float.is_finite (float_of_string v)) then
        failwith (w ^ ": " ^ name ^ " is not finite");
      if not (contains (Printf.sprintf "%S: {\"value\": " name)) then
        failwith (w ^ ": " ^ name ^ " missing from the result line"))
    want

let deterministic =
  [
    "append_p50_us"; "append_p999_us"; "read_p50_us"; "read_p999_us";
    "visible_p50_us"; "visible_p999_us"; "append_kps"; "unavail_ms";
  ]

let () =
  let exe = Sys.argv.(1) and spec = read_file Sys.argv.(2) in
  let exe = if Filename.is_implicit exe then Filename.concat "." exe else exe in
  let e2e = pairs metric_re spec "end_to_end" in
  let layers = pairs metric_re spec "per_layer" in
  List.iter
    (fun (w, _) ->
      let args = [ "--workload"; w; "--seed"; "7"; "--smoke"; "--seconds"; "0" ] in
      let a = run exe args and b = run exe args in
      let t = run exe (args @ [ "--trace"; "1" ]) in
      check ~w a e2e;
      check ~w t layers;
      let value lines name = fst (List.assoc name (printed lines)) in
      List.iter
        (fun name ->
          if value a name <> value b name then
            failwith (Printf.sprintf "%s: %s differs between equal seeds" w name))
        ("alloc_words_per_op" :: deterministic);
      List.iter
        (fun name ->
          if value a name <> value t ("traced." ^ name) then
            failwith (Printf.sprintf "%s: tracing changed %s" w name))
        deterministic;
      Printf.printf "%s: ok\n" w)
    (pairs workload_re spec "workloads")
