(* Figure "batch": append-path group commit. Small-record (100 B) append
   throughput and ack latency with the client-side linger batcher at
   linger 0/5/20/50 us, versus batching off, on both Erwin systems.

   Batching off, both systems are sequencer-bound at small records: every
   append pays the full seq_base_ns admission cost. The batcher amortizes
   that base across a wire batch, so throughput scales with the achieved
   batch size while p50 ack latency pays roughly the linger window. The
   config defaults keep batching OFF, so figures 6-18 are unchanged;
   this sweep quantifies what opting in buys. *)

open Ll_sim
open Harness

let lingers_us = [ 0; 5; 20; 50 ]

let cfg_of ~batching ~linger_us =
  let base =
    Lazylog.Config.scaled_cluster
      { Lazylog.Config.default with nshards = 5; shard_backup_count = 1 }
  in
  if batching then
    { base with Lazylog.Config.linger = Some (Engine.us linger_us) }
  else base

let run_mode mode mode_name json =
  section "Figure batch: group commit — %s (100 B records, 5 shards NVMe)"
    mode_name;
  let duration = dur 30 150 in
  let lat_dur = dur 20 100 in
  table_header [ "linger_us"; "throughput"; "p50_us"; "p99_us" ];
  let measure ~batching ~linger_us ~label =
    let cfg = cfg_of ~batching ~linger_us in
    let base_cap = expected_capacity ~cfg ~mode ~size:100 in
    (* Batching lifts the sequencer bound, so the next ceiling governs
       how hard we can offer. For Erwin-st that is the shards' per-record
       data-write CPU (shard_base_ns + 0.3 ns/B, one write per replica):
       offering far above it queues binds behind data writes unboundedly
       and the drain measurement never reaches steady state. *)
    let shard_cpu_cap =
      float_of_int cfg.Lazylog.Config.nshards
      *. 1e9
      /. (float_of_int cfg.Lazylog.Config.shard_base_ns +. (0.3 *. 116.))
    in
    let offered =
      if batching then
        match mode with
        | `M -> 4.0 *. base_cap
        | `St -> Float.min (4.0 *. base_cap) (0.8 *. shard_cpu_cap)
      else 1.4 *. base_cap
    in
    let tput = drain_throughput ~cfg ~mode ~size:100 ~offered ~duration in
    (* Ack latency at moderate load (30% of the unbatched capacity),
       where the linger window rather than queueing dominates. *)
    let sys =
      match mode with `M -> erwin_m ~cfg () | `St -> erwin_st ~cfg ()
    in
    let _r, _mean, p50, p99 =
      append_row sys ~rate:(0.3 *. base_cap) ~size:100 ~duration:lat_dur
    in
    row label [ kops tput; f1 p50; f1 p99 ];
    json :=
      {
        js_series = mode_name ^ "/" ^ label;
        js_throughput = tput;
        js_p50_us = p50;
        js_p99_us = p99;
        js_p999_us = 0.0;
      }
      :: !json;
    tput
  in
  let off = measure ~batching:false ~linger_us:0 ~label:"off" in
  let best =
    List.fold_left
      (fun best l ->
        Float.max best
          (measure ~batching:true ~linger_us:l ~label:(string_of_int l)))
      0.0 lingers_us
  in
  note "batching off is sequencer-bound at %s/s; best batched %s/s (%.1fx)"
    (kops off) (kops best) (best /. off)

let run () =
  let json = ref [] in
  run_mode `M "erwin-m" json;
  run_mode `St "erwin-st" json;
  write_json ~name:"batch" (List.rev !json)
