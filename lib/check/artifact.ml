open Ll_sim

type scenario = {
  system : string;
  seed : int;
  shards : int;
  modes : Mode.t list;
  bug : string option;
  horizon : Engine.time;
  script : Fault_dsl.script;
}

type t = {
  scenario : scenario;
  invariant : string;
  detail : string;
  at_event : int;
  at_time : Engine.time;
}

let magic = "lazylog-check artifact v1"

let to_string a =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "%s" magic;
  line "system %s" a.scenario.system;
  line "seed %d" a.scenario.seed;
  line "shards %d" a.scenario.shards;
  List.iter
    (fun m -> line "%s %b" (Mode.info m).Mode.key (List.mem m a.scenario.modes))
    Mode.all;
  (match a.scenario.bug with Some b -> line "bug %s" b | None -> ());
  line "horizon %d" a.scenario.horizon;
  line "invariant %s" a.invariant;
  line "at_event %d" a.at_event;
  line "at_time %d" a.at_time;
  line "detail %s" a.detail;
  line "script %d" (List.length a.scenario.script);
  List.iter (fun s -> line "%s" (Fault_dsl.step_to_string s)) a.scenario.script;
  Buffer.contents buf

let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | m :: rest when m = magic ->
    let kv line =
      match String.index_opt line ' ' with
      | Some i ->
        ( String.sub line 0 i,
          String.sub line (i + 1) (String.length line - i - 1) )
      | None -> (line, "")
    in
    let fields = Hashtbl.create 16 in
    let script = ref [] in
    let in_script = ref false in
    List.iter
      (fun line ->
        if !in_script then script := Fault_dsl.step_of_string line :: !script
        else
          let k, v = kv line in
          if k = "script" then in_script := true
          else Hashtbl.replace fields k v)
      rest;
    let get k =
      match Hashtbl.find_opt fields k with
      | Some v -> v
      | None -> failwith ("artifact: missing field " ^ k)
    in
    let geti k = int_of_string (get k) in
    (* Artifacts from before the serial orderer's removal carry a
       [serial] line. [false] named the orderer that still runs; [true]
       named one that no longer exists, and replaying it under the
       pipelined orderer would silently check a different run. *)
    (match Hashtbl.find_opt fields "serial" with
    | Some "true" ->
      failwith
        "artifact: recorded under the removed serial orderer (serial \
         true); it cannot be replayed"
    | Some "false" | None -> ()
    | Some v -> failwith ("artifact: bad serial field " ^ v));
    {
      scenario =
        {
          system = get "system";
          seed = geti "seed";
          shards = geti "shards";
          (* A key absent from an artifact older than its mode is off. *)
          modes =
            List.filter
              (fun m ->
                match Hashtbl.find_opt fields (Mode.info m).Mode.key with
                | Some b -> bool_of_string b
                | None -> false)
              Mode.all;
          bug = Hashtbl.find_opt fields "bug";
          horizon = geti "horizon";
          script = Fault_dsl.sort (List.rev !script);
        };
      invariant = get "invariant";
      detail = (match Hashtbl.find_opt fields "detail" with Some d -> d | None -> "");
      at_event = geti "at_event";
      at_time = geti "at_time";
    }
  | _ -> failwith "artifact: not a lazylog-check artifact (bad magic)"

let save ~path a =
  let oc = open_out path in
  output_string oc (to_string a);
  close_out oc

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_string s
