(* Shared benchmark plumbing: system factories, workload drivers, and
   table/CDF printing. Every fig*.ml module reproduces one figure of the
   paper's evaluation (section 6) and prints the same rows/series the
   figure reports. *)

open Ll_sim
open Lazylog
open Ll_workload

(* --- printing --- *)

(* Optional machine-readable mirror of every table row
   (section,column,...header / section,label,cells...). *)
let csv_out : out_channel option ref = ref None
let current_section = ref ""
let current_cols : string list ref = ref []

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let csv_line cells =
  match !csv_out with
  | Some oc ->
    output_string oc (String.concat "," (List.map csv_escape cells));
    output_char oc '\n'
  | None -> ()

(* Optional machine-readable JSON output: one BENCH_<name>.json file per
   benchmark under [!json_dir], of the shape
   {schema: "lazylog-bench/v1", name, series: [{series, throughput,
   p50_us, p99_us, p999_us}, ...]} (CI parses every emitted file against
   this schema). *)
let json_dir : string option ref = ref None
let json_schema = "lazylog-bench/v1"

type json_series = {
  js_series : string;
  js_throughput : float;  (** records per second *)
  js_p50_us : float;
  js_p99_us : float;
  js_p999_us : float;  (** 0.0 when the benchmark has no tail to report *)
}

(* NaN/inf are not valid JSON numbers (a latency reservoir that saw no
   samples yields NaN percentiles): clamp to 0 so the file always
   parses. *)
let json_num x = if Float.is_finite x then x else 0.0

let write_json ~name (series : json_series list) =
  match !json_dir with
  | None -> ()
  | Some dir ->
    (try if not (Sys.is_directory dir) then failwith "not a dir"
     with Sys_error _ | Failure _ -> (
       try Sys.mkdir dir 0o755 with Sys_error _ -> ()));
    let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" name) in
    let oc = open_out path in
    Printf.fprintf oc "{\"schema\": %S, \"name\": %S, \"series\": [\n"
      json_schema name;
    List.iteri
      (fun i s ->
        Printf.fprintf oc
          "  {\"series\": %S, \"throughput\": %.1f, \"p50_us\": %.2f, \
           \"p99_us\": %.2f, \"p999_us\": %.2f}%s\n"
          s.js_series (json_num s.js_throughput) (json_num s.js_p50_us)
          (json_num s.js_p99_us) (json_num s.js_p999_us)
          (if i = List.length series - 1 then "" else ","))
      series;
    output_string oc "]}\n";
    close_out oc;
    Printf.printf "  [json: %s]\n%!" path

let section fmt =
  Printf.ksprintf
    (fun s ->
      current_section := s;
      Printf.printf "\n=== %s ===\n%!" s)
    fmt

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  %s\n%!" s) fmt

let table_header cols =
  current_cols := cols;
  csv_line ("#section" :: cols);
  Printf.printf "  %-28s %s\n" (List.hd cols)
    (String.concat " " (List.map (Printf.sprintf "%12s") (List.tl cols)));
  Printf.printf "  %s\n"
    (String.make (28 + (13 * (List.length cols - 1))) '-')

let row label cells =
  csv_line (!current_section :: label :: cells);
  Printf.printf "  %-28s %s\n%!" label
    (String.concat " " (List.map (Printf.sprintf "%12s") cells))

let f1 x = Printf.sprintf "%.1f" x
let f0 x = Printf.sprintf "%.0f" x
let kops x = Printf.sprintf "%.1fK" (x /. 1_000.)

let print_cdf name r ~points =
  Printf.printf "  CDF %s (latency_us : cum_pct):" name;
  List.iter
    (fun (lat, pct) -> Printf.printf " %.1f:%.0f" lat pct)
    (Stats.Reservoir.cdf r ~points);
  print_newline ()

(* --- scale control --- *)

let quick = ref true
(* quick mode shortens measurement windows; --full restores longer ones *)

let dur ms_quick ms_full = Engine.ms (if !quick then ms_quick else ms_full)

(* --- system factories (fresh system per simulation) --- *)

type sys = {
  name : string;
  make : unit -> unit -> Log_api.t;
      (** build the system, return a client factory; call inside a sim *)
}

let erwin_m ?(cfg = Config.default) () =
  {
    name = "erwin-m";
    make =
      (fun () ->
        let cluster = Erwin_m.create ~cfg () in
        fun () -> Erwin_m.client cluster);
  }

let erwin_st ?(cfg = Config.default) () =
  {
    name = "erwin-st";
    make =
      (fun () ->
        let cluster = Erwin_st.create ~cfg () in
        fun () -> Erwin_st.client cluster);
  }

let corfu ?(config = Ll_corfu.Corfu.default_config) () =
  {
    name = "corfu";
    make =
      (fun () ->
        let c = Ll_corfu.Corfu.create ~config () in
        fun () -> Ll_corfu.Corfu.client c);
  }

let scalog ?(config = Ll_scalog.Scalog.default_config) () =
  {
    name = "scalog";
    make =
      (fun () ->
        let s = Ll_scalog.Scalog.create ~config () in
        fun () -> Ll_scalog.Scalog.client s);
  }

(* --- append-latency experiment (figures 6, 7) --- *)

let append_latency sys ~rate ~size ~duration =
  Runner.in_sim (fun () ->
      let factory = sys.make () in
      Runner.append_workload ~log_factory:factory ~size ~rate ~duration ())

let append_row sys ~rate ~size ~duration =
  let r = append_latency sys ~rate ~size ~duration in
  let mean, p50, p99 = Runner.percentiles r.Runner.latency in
  (r, mean, p50, p99)

(* --- append + read experiment (figures 8, 9, 14) ---

   Appends run open-loop at [rate]; a sequential reader consumes the log
   in [chunk]-sized reads, reading each position once it has been durable
   for [lag] (the paper's time-decoupled reader; [lag = 0] is the
   aggressive no-lag reader that chases the tail). With lazy ordering,
   only the first read into the unordered portion pays the ordering wait;
   the rest of the batch is then below stable-gp. Returns (append
   latencies, read latencies). *)

let append_and_read sys ~rate ~size ~duration ~lag ~chunk =
  Runner.in_sim (fun () ->
      let factory = sys.make () in
      let clients = Array.init 8 (fun _ -> factory ()) in
      let reader = factory () in
      let app_lat = Stats.Reservoir.create ~name:"append" () in
      let read_lat = Stats.Reservoir.create ~name:"read" () in
      let ack_times : Engine.time array ref = ref (Array.make 4096 0) in
      let acked = ref 0 in
      let warmup = Engine.ms 5 in
      let t_measure = Engine.now () + warmup in
      let t_end = t_measure + duration in
      Arrival.open_loop ~rate ~until:t_end (fun i ->
          let log = clients.(i mod 8) in
          let t0 = Engine.now () in
          if log.Log_api.append ~size ~data:(Runner.data_for i) then begin
            if t0 >= t_measure then
              Stats.Reservoir.add app_lat (Engine.now () - t0);
            if !acked >= Array.length !ack_times then begin
              let bigger = Array.make (2 * Array.length !ack_times) 0 in
              Array.blit !ack_times 0 bigger 0 !acked;
              ack_times := bigger
            end;
            !ack_times.(!acked) <- Engine.now ();
            incr acked
          end);
      (* Sequential reader. *)
      Engine.spawn ~name:"bench.reader" (fun () ->
          let cursor = ref 0 in
          let rec loop () =
            if Engine.now () < t_end + Engine.ms 10 then begin
              let last = !cursor + chunk - 1 in
              if !acked > last && Engine.now () >= !ack_times.(last) + lag
              then begin
                let t0 = Engine.now () in
                let got = reader.Log_api.read ~from:!cursor ~len:chunk in
                if t0 >= t_measure then
                  Stats.Reservoir.add read_lat (Engine.now () - t0);
                cursor := !cursor + List.length got
              end
              else Engine.sleep (Engine.us 5);
              loop ()
            end
          in
          loop ());
      Engine.sleep_until (t_end + Engine.ms 30);
      (app_lat, read_lat))

(* Steady-state throughput via the binding rate: drive the cluster above
   capacity and measure how fast stable-gp advances (records ordered,
   bound and made readable per second). Unlike counting client acks, this
   converges immediately — the in-memory buffers along the pipeline
   (sequencing log, shard write buffers) otherwise absorb load for
   hundreds of milliseconds before acks throttle. *)
let drain_throughput ~cfg ~mode ~size ~offered ~duration =
  Runner.in_sim (fun () ->
      let cluster, client =
        match mode with
        | `M ->
          let c = Lazylog.Erwin_m.create ~cfg () in
          (c, fun () -> Lazylog.Erwin_m.client c)
        | `St ->
          let c = Lazylog.Erwin_st.create ~cfg () in
          (c, fun () -> Lazylog.Erwin_st.client c)
      in
      let clients = Array.init 32 (fun _ -> client ()) in
      let t_measure = Engine.now () + Engine.ms 15 in
      let t_end = t_measure + duration in
      Arrival.open_loop ~rate:offered ~until:t_end (fun i ->
          ignore
            (clients.(i mod 32).Log_api.append ~size ~data:(Runner.data_for i)));
      Engine.sleep_until t_measure;
      let g0 = cluster.Lazylog.Erwin_common.stable_gp in
      Engine.sleep_until t_end;
      let g1 = cluster.Lazylog.Erwin_common.stable_gp in
      Stats.throughput_per_sec ~count:(g1 - g0) ~dur:duration)

(* Expected capacity model for sizing the offered load: the sequencing
   replicas cap at [1 / (base + per_byte * entry_size)] and each shard
   drains its device's sustained bandwidth. *)
let seq_cap_records ~cfg ~size =
  1e9
  /. (float_of_int cfg.Lazylog.Config.seq_base_ns
     +. (cfg.Lazylog.Config.seq_per_byte_ns *. float_of_int size))

let seq_cap_meta ~cfg =
  1e9
  /. (float_of_int cfg.Lazylog.Config.seq_base_ns
     +. (cfg.Lazylog.Config.seq_per_byte_ns
        *. float_of_int Lazylog.Types.meta_size))

let shard_bw_bytes ~cfg =
  match cfg.Lazylog.Config.shard_disk with
  | Lazylog.Config.Sata -> 140e6
  | Lazylog.Config.Nvme -> 285e6

let expected_capacity ~cfg ~mode ~size =
  let shards = float_of_int cfg.Lazylog.Config.nshards in
  let shard_cap = shards *. shard_bw_bytes ~cfg /. float_of_int size in
  let seq_cap =
    match mode with
    | `M -> seq_cap_records ~cfg ~size
    | `St -> seq_cap_meta ~cfg
  in
  Float.min seq_cap shard_cap
