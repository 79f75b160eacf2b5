(* lazylog-sim: drive any of the shared-log systems in this repository
   with a configurable append(+read) workload on the simulated cluster and
   report latency/throughput. A command-line playground for the paper's
   design space:

     dune exec bin/lazylog_sim.exe -- --system erwin-st --shards 5 \
       --rate 200000 --size 4096 --seconds 0.2 --read-lag-ms 3

   Systems: erwin-m, erwin-st, corfu, scalog, kafka, erwin-kafka. *)

open Ll_sim
open Lazylog
open Ll_workload

type system = Erwin_m | Erwin_st | Corfu | Scalog | Kafka | Erwin_kafka

let system_of_string = function
  | "erwin-m" -> Ok Erwin_m
  | "erwin-st" -> Ok Erwin_st
  | "corfu" -> Ok Corfu
  | "scalog" -> Ok Scalog
  | "kafka" -> Ok Kafka
  | "erwin-kafka" -> Ok Erwin_kafka
  | s -> Error (`Msg ("unknown system: " ^ s))

let system_conv =
  Cmdliner.Arg.conv
    ( system_of_string,
      fun fmt s ->
        Format.pp_print_string fmt
          (match s with
          | Erwin_m -> "erwin-m"
          | Erwin_st -> "erwin-st"
          | Corfu -> "corfu"
          | Scalog -> "scalog"
          | Kafka -> "kafka"
          | Erwin_kafka -> "erwin-kafka") )

let build_factory system ~shards ~nvme ~batching ~linger_us =
  let disk = if nvme then Config.Nvme else Config.Sata in
  let erwin_cfg cfg =
    if batching then { cfg with Config.linger = Some (Engine.us linger_us) }
    else cfg
  in
  match system with
  | Erwin_m ->
    let cfg =
      erwin_cfg { Config.default with nshards = shards; shard_disk = disk }
    in
    let cluster = Erwin_m.create ~cfg () in
    ((fun () -> Erwin_m.client cluster), fun () -> Some cluster.stable_gp)
  | Erwin_st ->
    let cfg =
      erwin_cfg
        { Config.default with nshards = shards; shard_disk = disk;
          shard_backup_count = 1 }
    in
    let cluster = Erwin_st.create ~cfg () in
    ((fun () -> Erwin_st.client cluster), fun () -> Some cluster.stable_gp)
  | Corfu ->
    let config =
      { Ll_corfu.Corfu.default_config with nshards = shards; shard_disk = disk }
    in
    let c = Ll_corfu.Corfu.create ~config () in
    ((fun () -> Ll_corfu.Corfu.client c), fun () -> None)
  | Scalog ->
    let config =
      { Ll_scalog.Scalog.default_config with nshards = shards; shard_disk = disk }
    in
    let s = Ll_scalog.Scalog.create ~config () in
    ((fun () -> Ll_scalog.Scalog.client s), fun () -> None)
  | Kafka ->
    let config =
      { Ll_kafka.Kafka.default_config with npartitions = shards; disk }
    in
    let k = Ll_kafka.Kafka.create ~config () in
    ((fun () -> Ll_kafka.Kafka.client_log k), fun () -> None)
  | Erwin_kafka ->
    let kafka_config =
      { Ll_kafka.Kafka.default_config with npartitions = shards; disk }
    in
    let sys = Ll_kafka.Kafka_erwin.create ~kafka_config () in
    ((fun () -> Ll_kafka.Kafka_erwin.client sys), fun () -> None)

let run system shards rate size seconds read_lag_ms nvme batching linger_us
    seed =
  let duration = Engine.us_f (seconds *. 1e6) in
  let app_lat, read_lat, achieved, stable =
    Runner.in_sim ~seed (fun () ->
        let factory, stable =
          build_factory system ~shards ~nvme ~batching ~linger_us
        in
        let clients = Array.init 16 (fun _ -> factory ()) in
        let app_lat = Stats.Reservoir.create () in
        let read_lat = Stats.Reservoir.create () in
        let completed = ref 0 in
        let acked = ref 0 in
        let t_measure = Engine.now () + Engine.ms 10 in
        let t_end = t_measure + duration in
        Arrival.open_loop ~rate ~until:t_end (fun i ->
            let log = clients.(i mod 16) in
            let t0 = Engine.now () in
            if log.Log_api.append ~size ~data:(string_of_int i) then begin
              incr acked;
              if t0 >= t_measure then begin
                Stats.Reservoir.add app_lat (Engine.now () - t0);
                incr completed
              end
            end);
        (match read_lag_ms with
        | Some lag_ms ->
          let lag = Engine.us_f (lag_ms *. 1000.) in
          let reader = factory () in
          Engine.spawn ~name:"cli.reader" (fun () ->
              let cursor = ref 0 in
              let rec loop () =
                if Engine.now () < t_end then begin
                  if !acked > !cursor then begin
                    Engine.sleep lag;
                    let t0 = Engine.now () in
                    let got = reader.Log_api.read ~from:!cursor ~len:1 in
                    if t0 >= t_measure then
                      Stats.Reservoir.add read_lat (Engine.now () - t0);
                    cursor := !cursor + max 1 (List.length got)
                  end
                  else Engine.sleep (Engine.us 20);
                  loop ()
                end
              in
              loop ())
        | None -> ());
        Engine.sleep_until (t_end + Engine.ms 50);
        ( app_lat,
          read_lat,
          Stats.throughput_per_sec ~count:!completed ~dur:duration,
          stable () ))
  in
  Printf.printf "system      : %s (%d shard%s%s%s)\n"
    (match system with
    | Erwin_m -> "erwin-m" | Erwin_st -> "erwin-st" | Corfu -> "corfu"
    | Scalog -> "scalog" | Kafka -> "kafka" | Erwin_kafka -> "erwin-m over kafka")
    shards
    (if shards = 1 then "" else "s")
    (if nvme then ", NVMe" else ", SATA")
    (if batching then Printf.sprintf ", batching linger=%dus" linger_us
     else "");
  Printf.printf "offered     : %.0f appends/s x %d B for %.3f s (simulated)\n"
    rate size seconds;
  Printf.printf "achieved    : %.0f appends/s\n" achieved;
  Printf.printf "append lat  : mean %.1f us | p50 %.1f | p99 %.1f | max %.1f\n"
    (Stats.Reservoir.mean_us app_lat)
    (Stats.Reservoir.percentile_us app_lat 50.0)
    (Stats.Reservoir.percentile_us app_lat 99.0)
    (Stats.Reservoir.max_us app_lat);
  if Stats.Reservoir.count read_lat > 0 then
    Printf.printf "read lat    : mean %.1f us | p50 %.1f | p99 %.1f\n"
      (Stats.Reservoir.mean_us read_lat)
      (Stats.Reservoir.percentile_us read_lat 50.0)
      (Stats.Reservoir.percentile_us read_lat 99.0);
  match stable with
  | Some gp -> Printf.printf "stable-gp   : %d records bound and readable\n" gp
  | None -> ()

open Cmdliner

let system =
  Arg.(
    value
    & opt system_conv Erwin_m
    & info [ "system"; "s" ] ~docv:"SYSTEM"
        ~doc:
          "Shared log to run: erwin-m, erwin-st, corfu, scalog, kafka, \
           erwin-kafka.")

let shards =
  Arg.(value & opt int 1 & info [ "shards" ] ~doc:"Number of storage shards.")

let rate =
  Arg.(value & opt float 30_000. & info [ "rate" ] ~doc:"Offered appends/s.")

let size =
  Arg.(value & opt int 4096 & info [ "size" ] ~doc:"Record size in bytes.")

let seconds =
  Arg.(
    value & opt float 0.1
    & info [ "seconds" ] ~doc:"Measured simulated duration in seconds.")

let read_lag =
  Arg.(
    value
    & opt (some float) None
    & info [ "read-lag-ms" ]
        ~doc:"Also run a sequential reader lagging appends by this many ms.")

let nvme =
  Arg.(value & flag & info [ "nvme" ] ~doc:"NVMe-class shard disks.")

let batching =
  Arg.(
    value & flag
    & info [ "batching" ]
        ~doc:
          "Enable append-path group commit (Erwin systems only): the \
           client-side linger batcher coalesces concurrent appends into \
           one wire batch.")

let linger_us =
  Arg.(
    value & opt int 20
    & info [ "linger-us" ]
        ~doc:"Linger window for $(b,--batching), in microseconds.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.")

let cmd =
  let doc = "drive a simulated shared-log cluster with a workload" in
  Cmd.v
    (Cmd.info "lazylog-sim" ~doc)
    Term.(
      const run $ system $ shards $ rate $ size $ seconds $ read_lag $ nvme
      $ batching $ linger_us $ seed)

let () = exit (Cmd.eval cmd)
