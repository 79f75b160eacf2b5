(* The four workloads and the metrics derived from their simulations.

   A workload is a list of load points (independent simulations, each
   with its own seed derived from the run's seed) plus the subset of them
   its latency and host metrics are taken from. *)

open Ll_sim
open Lazylog
open Point

type t = {
  name : string;
  points : spec list;
  measured : int list;  (** indices of the points the metrics come from *)
  ladder : bool;  (** report throughput at the SLO over every point *)
}

let slo_us = 50.0
let names = [ "append-ladder"; "tail-read"; "st-scan"; "failover" ]

let base =
  {
    system = Erwin_m;
    cfg = Config.default;
    producers = 8;
    size = 128;
    rate = 0.0;
    warmup = Engine.ms 5;
    window = Engine.ms 80;
    reading = None;
    crash = None;
  }

(* [smoke] shrinks every window (and the ladder's fan-in) so the whole
   suite runs in seconds under [dune runtest]; the shapes stay the same. *)
let get ~smoke name =
  let dur full small = Engine.ms (if smoke then small else full) in
  match name with
  | "append-ladder" ->
    (* Erwin-m write path at high fan-in: 10^4 producer endpoints, 128 B
       records, Poisson rates from 0.45x to 1.1x the sequencer's small
       record capacity. Latency is reported at 870 K/s, over two
       independent simulations of that rung (enough samples for a steady
       p99.9), each beside one closed-loop reader of settled (1 ms old)
       records. *)
    let rates = [ 550e3; 870e3; 870e3; 980e3; 1090e3; 1200e3; 1310e3 ] in
    let producers = if smoke then 1_000 else 10_000 in
    let rung rate =
      let at_latency = rate = 870e3 in
      {
        base with
        producers;
        rate;
        window = (if at_latency then dur 80 4 else dur 20 2);
        reading =
          (if at_latency then Some { readers = 1; lag = Engine.ms 1; chunk = 1 }
           else None);
      }
    in
    { name; points = List.map rung rates; measured = [ 1; 2 ]; ladder = true }
  | "tail-read" ->
    (* 4 KB appends at 30 K/s from 8 clients; one reader chases the tail
       one record at a time, so every read waits for binding. *)
    {
      name;
      points =
        [
          {
            base with
            size = 4096;
            rate = 30e3;
            window = dur 3000 60;
            reading = Some { readers = 1; lag = 0; chunk = 1 };
          };
        ];
      measured = [ 0 ];
      ladder = false;
    }
  | "st-scan" ->
    (* Erwin-st on NVMe: 3 shards with one backup each, 4 KB appends at
       200 K/s from 8 clients, 4 sequential readers 3 ms behind the acks
       in 25-record chunks. Reads never wait for binding. *)
    {
      name;
      points =
        [
          {
            base with
            system = Erwin_st;
            cfg =
              Config.scaled_cluster
                (Config.with_shards ~backups:1 Config.default 3);
            size = 4096;
            rate = 200e3;
            window = dur 500 20;
            reading = Some { readers = 4; lag = Engine.ms 3; chunk = 25 };
          };
        ];
      measured = [ 0 ];
      ladder = false;
    }
  | "failover" ->
    (* 1 KB appends at 30 K/s over 1000 client handles plus one lagged
       reader; sequencing replica (k mod 3) crashes at 40 ms of
       simulation k. *)
    let sims = if smoke then 3 else 20 in
    let sim k =
      {
        base with
        producers = 1_000;
        size = 1024;
        rate = 30e3;
        window = Engine.ms 115;
        reading = Some { readers = 1; lag = Engine.ms 1; chunk = 1 };
        crash = Some (Engine.ms 40, k mod 3);
      }
    in
    {
      name;
      points = List.init sims sim;
      measured = List.init sims Fun.id;
      ladder = false;
    }
  | w -> invalid_arg ("unknown workload " ^ w)

let point_seed ~seed ~workload i =
  Hashtbl.hash (seed, workload, i) land 0x3FFF_FFFF

(* One pass: every point of the workload, in order. *)
let run_pass ?traced ~seed w =
  List.mapi
    (fun i spec ->
      Point.run ?traced ~seed:(point_seed ~seed ~workload:w.name i) spec)
    w.points

(* A host-cost repetition: the measured points again, with about 48
   reference-loop timings spread over their windows, so the repetition's
   CPU cost can be expressed in reference-loop units. *)
type rep = { results : result list; ref_ns : float }

let run_rep ?traced ~seed w =
  let refs = (48 + List.length w.measured - 1) / List.length w.measured in
  let results =
    List.map
      (fun i ->
        Point.run ?traced ~refs
          ~seed:(point_seed ~seed ~workload:w.name i)
          (List.nth w.points i))
      w.measured
  in
  let samples = List.concat_map (fun (r : result) -> r.ref_ns) results in
  { results; ref_ns = Host.mean samples }

(* The measured points' results out of a full pass. *)
let measured w pass = List.map (List.nth pass) w.measured

let merge f rs = Stats.Reservoir.merge (List.map f rs)
let pct r p = Stats.Reservoir.percentile_us r p
let window_s (r : result) = Engine.to_sec (r.t_end - r.t_measure)
let achieved (r : result) = float_of_int (r.s1.acks - r.s0.acks) /. window_s r

(* A ladder point meets the SLO when its p99.9 is within [slo_us], it kept
   up with the offered rate, and its in-flight count did not grow. *)
let meets_slo (r : result) =
  pct r.append_lat 99.9 <= slo_us
  && achieved r >= 0.97 *. r.spec.rate
  && r.s1.inflight <= (2 * r.s0.inflight) + 16

(* K appends per second: on the ladder the highest achieved rate that
   meets the SLO; elsewhere the achieved rate of the measured points. *)
let append_kps w results =
  if w.ladder then
    List.fold_left
      (fun best r -> if meets_slo r then Float.max best (achieved r) else best)
      0.0 results
    /. 1e3
  else begin
    let ms = measured w results in
    let acks = List.fold_left (fun a r -> a + r.s1.acks - r.s0.acks) 0 ms in
    let secs = List.fold_left (fun a r -> a +. window_s r) 0.0 ms in
    float_of_int acks /. secs /. 1e3
  end

let sum f rs = List.fold_left (fun a r -> a + f r) 0 rs
let sumf f rs = List.fold_left (fun a r -> a +. f r) 0.0 rs
let ops rs = sum window_ops rs

(* Host CPU ns per completed operation over the measured windows. *)
let host_ns_per_op rs = sumf window_cpu rs *. 1e9 /. float_of_int (ops rs)

(* The same cost in units of one reference-loop iteration timed beside
   it: machine-speed drift on a shared host moves both and cancels. *)
let host_cost_per_op rep = host_ns_per_op rep.results /. rep.ref_ns

let words_per_op rs =
  sumf (fun r -> r.s1.words -. r.s0.words) rs /. float_of_int (ops rs)

(* The largest heap a measured simulation held at the end of its window. *)
let live_heap_mb rs =
  Host.words_to_mb (List.fold_left (fun m r -> max m r.live_words) 0 rs)

(* The simulated end-to-end metrics: deterministic for a seed, and equal
   between the traced and untraced passes. *)
let simulated w results =
  let ms = measured w results in
  let app = merge (fun r -> r.append_lat) ms in
  let rd = merge (fun r -> r.read_lat) ms in
  let vis = merge (fun r -> r.visible_lag) ms in
  [
    ("append_p50_us", pct app 50.0, "us");
    ("append_p999_us", pct app 99.9, "us");
    ("read_p50_us", pct rd 50.0, "us");
    ("read_p999_us", pct rd 99.9, "us");
    ("visible_p50_us", pct vis 50.0, "us");
    ("visible_p999_us", pct vis 99.9, "us");
    ("append_kps", append_kps w results, "K/s");
    ("unavail_ms", Host.median (List.map (fun r -> r.unavail) ms), "ms");
  ]

(* A set-up sampler for [w]: each call returns the CPU seconds of one
   measured point's cluster + client construction, averaged over enough
   set-ups to take about 40 ms (one set-up timed alone gives the count),
   starting from a collected heap. *)
let setup_sampler ~seed w =
  let spec = List.nth w.points (List.hd w.measured) in
  let estimate = Point.setup_cpu ~seed spec in
  let batch =
    max 1 (int_of_float (Float.ceil (0.04 /. Float.max estimate 1e-6)))
  in
  let k = ref 0 in
  fun () ->
    Gc.full_major ();
    let total = ref 0.0 in
    for b = 1 to batch do
      let seed = point_seed ~seed ~workload:w.name ((!k * batch) + b) in
      total := !total +. Point.setup_cpu ~seed spec
    done;
    incr k;
    !total /. float_of_int batch

(* CPU seconds of one pass's set-up, from set-up samples, rescaled from
   the host's speed while they ran (the reference loop took [ref_ns] per
   iteration) to [Host.nominal_ref_ns]. The raw samples drift by up to 2x
   with the load on a shared host; the ratio to the reference loop moves
   by a few per cent. *)
let setup_s w samples ~ref_ns =
  Host.median samples /. ref_ns *. Host.nominal_ref_ns
  *. float_of_int (List.length w.points)

let errors results = List.concat_map (fun r -> r.errors) results
let attempted results = sum (fun r -> r.attempted) results
let failed results = sum (fun r -> r.failed) results
