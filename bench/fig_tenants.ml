(* `--fig tenants`: the multi-log fabric at scale (not a paper figure).

   (a) Aggregate append throughput vs tenant count, Erwin-m with
   [fair_ingress] on: one open-loop Poisson arrival process spread
   over N tenant logs with YCSB-style Zipf skew (theta 0.99), N on a
   ladder from 1 to thousands. Each tenant is an
   independent sequencing keyspace with its own stable cursor; the
   headline claim is that the packed keyspace and per-log cursors are
   O(1) per append, so a thousand logs cost what one does — the
   1000-log row must hold >= 0.9x the single-log rate.

   (b) Victim-tenant p99 under an aggressor, fair ingress off/on: a
   light victim tenant (open-loop, small records) shares the cluster
   with an aggressor tenant running saturating closed-loop large
   appends. The sequencing replica's CPU is a single queue (service
   time is charged serially on the endpoint's receive path), so with
   FIFO ingress the victim's appends wait behind the aggressor's
   backlog; DRR weighted-fair scheduling caps the victim's wait at
   roughly one aggressor quantum. Reported against the no-aggressor
   baseline. *)

open Ll_sim
open Lazylog
open Ll_workload
open Harness

(* --- (a) aggregate throughput vs tenant count --- *)

let ladder_point ~ntenants ~rate ~size ~duration =
  Runner.in_sim (fun () ->
      let cfg =
        {
          Config.default with
          Config.fair_ingress = Some Config.default_ingress;
        }
      in
      let cluster = Erwin_m.create ~cfg () in
      let clients =
        Array.init ntenants (fun l -> Erwin_m.client ~log:l cluster)
      in
      let zipf =
        Rng.Zipf.create (Rng.create ~seed:77) ~n:ntenants ~theta:0.99
      in
      let lat = Stats.Reservoir.create ~name:"tenant_ladder" () in
      let measured = ref 0 in
      let t_measure = Engine.now () + Engine.ms 5 in
      let t_end = t_measure + duration in
      Arrival.open_loop ~rate ~until:t_end (fun i ->
          let log = clients.(Rng.Zipf.next zipf) in
          let t0 = Engine.now () in
          if log.Log_api.append ~size ~data:(Runner.data_for i) then
            if t0 >= t_measure then begin
              Stats.Reservoir.add lat (Engine.now () - t0);
              incr measured
            end);
      Engine.sleep_until (t_end + Engine.ms 20);
      (Stats.throughput_per_sec ~count:!measured ~dur:duration, lat))

(* --- (b) victim p99 under an aggressor, fair ingress off/on --- *)

let victim_latency ~aggressor ~fair ~duration =
  Runner.in_sim (fun () ->
      let cfg =
        {
          Config.default with
          Config.fair_ingress =
            (* One aggressor record per DRR round: the victim's worst-case
               wait under fairness is a single large service, not a whole
               multi-record quantum. *)
            (if fair then Some { Config.default_ingress with quantum = 2048 }
             else None);
        }
      in
      let cluster = Erwin_m.create ~cfg () in
      let victim = Erwin_m.client ~log:1 cluster in
      let lat = Stats.Reservoir.create ~name:"victim" () in
      let t_measure = Engine.now () + Engine.ms 5 in
      let t_end = t_measure + duration in
      if aggressor then
        (* Saturating closed loop: enough in-flight large appends that
           the sequencing replicas' CPU, not the network, is the
           bottleneck (service ~1.9us per 2 KB record vs ~5us RTT). *)
        for a = 1 to 32 do
          let agg = Erwin_m.client ~log:2 cluster in
          Engine.spawn ~name:(Printf.sprintf "bench.aggressor%d" a) (fun () ->
              let i = ref 0 in
              while Engine.now () < t_end do
                incr i;
                ignore
                  (agg.Log_api.append ~size:2048
                     ~data:(Printf.sprintf "agg%d.%d" a !i)
                    : bool)
              done)
        done;
      Arrival.open_loop ~rate:20_000. ~until:t_end (fun i ->
          let t0 = Engine.now () in
          if victim.Log_api.append ~size:512 ~data:(Runner.data_for i) then
            if t0 >= t_measure then
              Stats.Reservoir.add lat (Engine.now () - t0));
      Engine.sleep_until (t_end + Engine.ms 2);
      lat)

let run () =
  let size = 128 in
  let cfg = Config.default in
  let cap = expected_capacity ~cfg ~mode:`M ~size in
  let rate = 0.6 *. cap in
  let duration = dur 20 100 in
  section
    "Tenants (a): Aggregate Throughput vs Tenant Count (Erwin-m, Zipf 0.99, \
     %.0fK offered)"
    (rate /. 1e3);
  let ladder = if !quick then [ 1; 10; 100; 1000 ] else [ 1; 10; 100; 1000; 4000 ] in
  let points =
    List.map
      (fun n -> (n, ladder_point ~ntenants:n ~rate ~size ~duration))
      ladder
  in
  table_header [ "tenant logs"; "achieved"; "p50_us"; "p99_us" ];
  List.iter
    (fun (n, (thr, lat)) ->
      row (string_of_int n)
        [
          kops thr;
          f1 (Stats.Reservoir.percentile_us lat 50.0);
          f1 (Stats.Reservoir.percentile_us lat 99.0);
        ])
    points;
  let thr_of n = fst (List.assoc n points) in
  note "1000 logs hold %.2fx the single-log rate (floor 0.90x)"
    (thr_of 1000 /. thr_of 1);

  section
    "Tenants (b): Victim p99 under an Aggressor Tenant (Erwin-m, fair \
     ingress off/on)";
  let vduration = dur 20 100 in
  let v_base = victim_latency ~aggressor:false ~fair:false ~duration:vduration in
  let v_fifo = victim_latency ~aggressor:true ~fair:false ~duration:vduration in
  let v_fair = victim_latency ~aggressor:true ~fair:true ~duration:vduration in
  table_header [ "series"; "p50_us"; "p99_us" ];
  let prow name r =
    row name
      [
        f1 (Stats.Reservoir.percentile_us r 50.0);
        f1 (Stats.Reservoir.percentile_us r 99.0);
      ]
  in
  prow "no aggressor" v_base;
  prow "aggressor, fifo ingress" v_fifo;
  prow "aggressor, fair ingress" v_fair;
  let p99 r = Stats.Reservoir.percentile_us r 99.0 in
  note
    "aggressor inflates victim p99 %.1fx under FIFO; fair ingress restores \
     it to %.2fx the no-aggressor baseline (ceiling 1.5x)"
    (p99 v_fifo /. p99 v_base)
    (p99 v_fair /. p99 v_base);

  write_json ~name:"tenants"
    (List.map
       (fun (n, (thr, lat)) ->
         {
           js_series = Printf.sprintf "zipf-%d-logs" n;
           js_throughput = thr;
           js_p50_us = Stats.Reservoir.percentile_us lat 50.0;
           js_p99_us = Stats.Reservoir.percentile_us lat 99.0;
           js_p999_us = 0.0;
         })
       points
    @ [
        {
          js_series = "victim no aggressor";
          js_throughput = 0.;
          js_p50_us = Stats.Reservoir.percentile_us v_base 50.0;
          js_p99_us = p99 v_base;
          js_p999_us = 0.0;
        };
        {
          js_series = "victim aggressor fifo";
          js_throughput = 0.;
          js_p50_us = Stats.Reservoir.percentile_us v_fifo 50.0;
          js_p99_us = p99 v_fifo;
          js_p999_us = 0.0;
        };
        {
          js_series = "victim aggressor fair";
          js_throughput = 0.;
          js_p50_us = Stats.Reservoir.percentile_us v_fair 50.0;
          js_p99_us = p99 v_fair;
          js_p999_us = 0.0;
        };
      ])
