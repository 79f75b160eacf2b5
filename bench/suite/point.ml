(* One simulation of a benchmark load point: set up a cluster and its
   clients, drive open-loop appends (plus optional closed-loop readers and
   a crash) through a warm-up and a timed window, then drain and check the
   log.

   Every number is taken from outside the system under test: the suite
   times its own calls to [Log_api.t], reads public getters and counters
   at the window's edges, and records stable-frontier advances through the
   cluster's public [on_stable] hook. With [traced], a sampler also reads
   gauges every 10 us of simulated time; it only reads state, so the
   simulated schedule — and every simulated metric — is the same as
   untraced. *)

open Ll_sim
open Ll_net
open Lazylog
open Ll_workload
open Host

type system = Erwin_m | Erwin_st

type reading = {
  readers : int;
  lag : Engine.time;  (** read a record once it has been acked this long *)
  chunk : int;  (** records per read *)
}

type spec = {
  system : system;
  cfg : Config.t;
  producers : int;  (** client endpoints the open-loop arrivals rotate over *)
  size : int;  (** record bytes *)
  rate : float;  (** offered appends per second, Poisson *)
  warmup : Engine.time;
  window : Engine.time;
  reading : reading option;
  crash : (Engine.time * int) option;
      (** crash sequencing replica [i] at this simulated time *)
}

(* Public counters read at the window's edges. *)
type snap = {
  cpu : float;
  words : float;
  events : int;
  fibers : int;
  cancelled : int;
  msgs : int;
  bytes : int;
  rpc : Rpc.counter_snapshot;
  seq_in : int;  (** messages delivered to the sequencing replicas *)
  batches : int;
  batched : int;
  disk_ops : int;
  disk_bytes : int;
  acks : int;
  reads : int;
  inflight : int;
}

(* Gauges the traced pass samples every [sample_every]. *)
type gauges = {
  pending : Vec.t;
  live : Vec.t;
  unclaimed : Vec.t;
  depth : Vec.t;
  disk_queue : Vec.t;
  staged : Vec.t;
  mirror_lag : Vec.t;
  client_inflight : Vec.t;
}

let sample_every = Engine.us 10

type result = {
  spec : spec;
  t_measure : Engine.time;
  t_end : Engine.time;
  append_lat : Stats.Reservoir.t;  (** appends invoked in the window *)
  read_lat : Stats.Reservoir.t;  (** reads invoked in the window *)
  visible_lag : Stats.Reservoir.t;
  unavail : float;  (** ms: the crash's ack gap, else [steady_gap_ms] *)
  live_words : int;  (** heap words the simulation holds at [t_end] *)
  attempted : int;
  failed : int;
  s0 : snap;
  s1 : snap;
  reads_in_window : int;
  slow_reads : int;
  ref_ns : float list;  (** reference-loop timings taken in the window *)
  ref_cpu : float;  (** CPU seconds those took, left out of the window's *)
  gauges : gauges option;
  samples : int;
  stable_lag_p50_us : float;
  stable_lag_p99_us : float;
  largest_batch : int;
  reconfig : Erwin_common.reconfig_timings list;
  stalled : int;  (** appends the crash held up (see [run]) *)
  stall_max : Engine.time;  (** longest latency among those *)
  errors : string list;  (** failed correctness checks *)
}

let window_ops r = r.s1.acks - r.s0.acks + (r.s1.reads - r.s0.reads)
let window_cpu r = r.s1.cpu -. r.s0.cpu -. r.ref_cpu

let make_cluster spec =
  match spec.system with
  | Erwin_m ->
    let c = Erwin_m.create ~cfg:spec.cfg () in
    (c, fun () -> Erwin_m.client c)
  | Erwin_st ->
    let c = Erwin_st.create ~cfg:spec.cfg () in
    (c, fun () -> Erwin_st.client c)

let disks (c : Erwin_common.t) =
  List.concat_map
    (fun s ->
      List.mapi (fun i _ -> Shard.replica_disk s i) (Shard.replica_ids s))
    c.Erwin_common.shards

let snapshot (c : Erwin_common.t) replicas ~acks ~reads ~inflight =
  let disks = disks c in
  {
    cpu = cpu ();
    words = words ();
    events = Engine.events_executed ();
    fibers = Engine.fiber_count ();
    cancelled = Engine.timers_cancelled ();
    msgs = Fabric.messages_sent c.Erwin_common.fabric;
    bytes = Fabric.bytes_sent c.Erwin_common.fabric;
    rpc = Rpc.counters ();
    seq_in =
      List.fold_left
        (fun acc r -> acc + Fabric.node_messages_in (Seq_replica.node r))
        0 replicas;
    batches = c.Erwin_common.batches;
    batched = c.Erwin_common.batched_entries;
    disk_ops = List.fold_left (fun acc d -> acc + Ll_storage.Disk.ops d) 0 disks;
    disk_bytes =
      List.fold_left (fun acc d -> acc + Ll_storage.Disk.bytes_written d) 0 disks;
    acks;
    reads;
    inflight;
  }

let new_gauges () =
  {
    pending = Vec.create ();
    live = Vec.create ();
    unclaimed = Vec.create ();
    depth = Vec.create ();
    disk_queue = Vec.create ();
    staged = Vec.create ();
    mirror_lag = Vec.create ();
    client_inflight = Vec.create ();
  }

let sample g (c : Erwin_common.t) ~inflight =
  Vec.push g.pending (Engine.pending_events ());
  (match c.Erwin_common.replicas with
  | ldr :: _ ->
    let slog = Seq_replica.log ldr in
    Vec.push g.live (Seq_log.live_count slog);
    Vec.push g.unclaimed (Seq_log.unclaimed_count slog)
  | [] -> ());
  Vec.push g.depth c.Erwin_common.inflight_batches;
  let q, staged, lag =
    List.fold_left
      (fun (q, st, lag) s ->
        ( max q (Ll_storage.Disk.queue_depth_time (Shard.replica_disk s 0)),
          st + Shard.staged_count s,
          max lag (c.Erwin_common.stable_gp - Shard.stable_gp s) ))
      (0, 0, 0) c.Erwin_common.shards
  in
  Vec.push g.disk_queue q;
  Vec.push g.staged staged;
  Vec.push g.mirror_lag lag;
  Vec.push g.client_inflight inflight

(* Every record read back must be one this workload wrote. *)
let valid_record spec (r : Types.record) =
  r.Types.size = spec.size
  && (not (Types.is_no_op r))
  &&
  match int_of_string_opt r.Types.data with
  | Some i -> i >= 0 && i < 256 && String.equal r.Types.data (Runner.data_for i)
  | None -> false

(* Lowest shard stable mirror a read of [pos] must clear to be served
   without waiting (Erwin-st's owning shard is not known before the map
   fetch, so the lowest mirror stands in). *)
let owner_mirror spec (c : Erwin_common.t) pos =
  match spec.system with
  | Erwin_m -> Shard.stable_gp (Erwin_common.shard_of_position c pos)
  | Erwin_st ->
    List.fold_left
      (fun m s -> min m (Shard.stable_gp s))
      max_int c.Erwin_common.shards

(* Median, over runs of 100 consecutive ack gaps inside the window, of
   the longest gap of the run, in ms: how long the log goes without
   acknowledging anything, in steady state. *)
let steady_gap_ms acks ~t_measure ~t_end =
  let gaps = ref [] and longest = ref 0 and count = ref 0 in
  for k = 1 to Vec.length acks - 1 do
    let a = Vec.get acks (k - 1) and b = Vec.get acks k in
    if a >= t_measure && b < t_end then begin
      longest := max !longest (b - a);
      incr count;
      if !count = 100 then begin
        gaps := Engine.to_ms !longest :: !gaps;
        longest := 0;
        count := 0
      end
    end
  done;
  median !gaps

(* Longest ack gap that contains the crash instant, in ms. *)
let crash_gap_ms acks ~crash_at =
  let n = Vec.length acks in
  let before = ref (-1) in
  for k = 0 to n - 1 do
    if Vec.get acks k <= crash_at then before := k
  done;
  if !before < 0 || !before + 1 >= n then nan
  else Engine.to_ms (Vec.get acks (!before + 1) - Vec.get acks !before)

(* For the n-th ack inside the window, how long until stable-gp >= n. *)
let visible_lags acks st_time st_gp ~t_measure ~t_end =
  let r = Stats.Reservoir.create ~name:"visible" () in
  let j = ref 0 in
  let ns = Vec.length st_time in
  let missing = ref 0 in
  for k = 0 to Vec.length acks - 1 do
    let a = Vec.get acks k in
    if a >= t_measure && a < t_end then begin
      while !j < ns && Vec.get st_gp !j < k + 1 do incr j done;
      if !j < ns then Stats.Reservoir.add r (max 0 (Vec.get st_time !j - a))
      else incr missing
    end
  done;
  (r, !missing)

(* [refs] reference-loop timings ([Host.ref_ns]) are spread evenly over
   the window, from bare engine callbacks: they read no simulation state
   and their CPU time is taken back out of the window's. *)
let run ?(traced = false) ?(refs = 0) ~seed spec =
  Runner.in_sim ~seed (fun () ->
      let errors = ref [] in
      let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
      let live0 = live_words () in
      let cluster, client = make_cluster spec in
      let producers = Array.init spec.producers (fun _ -> client ()) in
      let readers =
        match spec.reading with
        | Some r -> Array.init r.readers (fun _ -> client ())
        | None -> [||]
      in
      let replicas = cluster.Erwin_common.replicas in
      let t_measure = Engine.now () + spec.warmup in
      let t_end = t_measure + spec.window in
      (* Stable-frontier advances, through the public hook. *)
      let st_time = Vec.create () and st_gp = Vec.create () in
      cluster.Erwin_common.on_stable <-
        Some
          (fun gp ->
            Vec.push st_time (Engine.now ());
            Vec.push st_gp gp);
      let append_lat = Stats.Reservoir.create ~name:"append" () in
      let read_lat = Stats.Reservoir.create ~name:"read" () in
      let acks = Vec.create () in
      let appends = ref 0 and reads = ref 0 and failed = ref 0 in
      let inflight = ref 0 and reads_done = ref 0 in
      let reads_in_window = ref 0 and slow_reads = ref 0 in
      let crash_ops = ref [] in
      let acked_q = Waitq.create () and drained = Waitq.create () in
      let active_readers = ref (Array.length readers) in
      let crash_at = Option.map fst spec.crash in
      let s0 = ref None and s1 = ref None and live = ref 0 in
      let snap () =
        snapshot cluster replicas ~acks:(Vec.length acks) ~reads:!reads_done
          ~inflight:!inflight
      in
      Engine.call_at t_measure (fun () -> s0 := Some (snap ()));
      Engine.call_at t_end (fun () ->
          s1 := Some (snap ());
          live := live_words () - live0;
          Waitq.broadcast acked_q);
      let ref_ns = ref [] and ref_cpu = ref 0.0 in
      for k = 0 to refs - 1 do
        Engine.call_at
          (t_measure + ((2 * k + 1) * spec.window / (2 * refs)))
          (fun () ->
            let c0 = cpu () in
            ref_ns := Host.ref_ns () :: !ref_ns;
            ref_cpu := !ref_cpu +. (cpu () -. c0))
      done;
      let gauges = if traced then Some (new_gauges ()) else None in
      let samples = ref 0 in
      (match gauges with
      | Some g ->
        let rec tick () =
          if Engine.now () < t_end then begin
            incr samples;
            sample g cluster ~inflight:!inflight;
            Engine.call_after sample_every tick
          end
        in
        Engine.call_at t_measure tick
      | None -> ());
      (match spec.crash with
      | Some (at, i) ->
        Engine.at at (fun () ->
            Erwin_common.crash_replica cluster (List.nth replicas i))
      | None -> ());
      (* A client handle carries one append at a time (concurrent appends
         on one handle break its per-client rid order, which the
         sequencing layer's duplicate filter relies on). Each arrival
         takes the longest-idle free handle and is timed from when it was
         due, so waiting for a handle counts as latency. *)
      let free = Queue.create () and freed = Waitq.create () in
      Array.iter (fun h -> Queue.push h free) producers;
      Arrival.open_loop ~rate:spec.rate ~until:t_end (fun i ->
          let t0 = Engine.now () in
          incr appends;
          incr inflight;
          Waitq.await freed (fun () -> not (Queue.is_empty free));
          let log = Queue.pop free in
          if log.Log_api.append ~size:spec.size ~data:(Runner.data_for i) then
          begin
            let t1 = Engine.now () in
            Vec.push acks t1;
            if t0 >= t_measure && t0 < t_end then
              Stats.Reservoir.add append_lat (t1 - t0);
            (match crash_at with
            | Some at when t1 > at -> crash_ops := (t0, t1) :: !crash_ops
            | _ -> ());
            Waitq.broadcast acked_q
          end
          else incr failed;
          Queue.push log free;
          Waitq.broadcast freed;
          decr inflight;
          if !inflight = 0 then Waitq.broadcast drained);
      (* Closed-loop sequential readers: each scans the log from position
         0, reading [chunk] records once the last of them has been acked
         for [lag]. *)
      Array.iter
        (fun (reader : Log_api.t) ->
          let r = Option.get spec.reading in
          Engine.spawn ~name:"suite.reader" (fun () ->
              let cursor = ref 0 in
              let stop = ref false in
              while not !stop do
                let last = !cursor + r.chunk - 1 in
                Waitq.await acked_q (fun () ->
                    Vec.length acks > last || Engine.now () >= t_end);
                if Vec.length acks > last then
                  Engine.sleep_until (Vec.get acks last + r.lag);
                if Engine.now () >= t_end then stop := true
                else begin
                  let t0 = Engine.now () in
                  let in_window = t0 >= t_measure in
                  if in_window then begin
                    incr reads_in_window;
                    if !cursor >= owner_mirror spec cluster !cursor then
                      incr slow_reads
                  end;
                  incr reads;
                  match reader.Log_api.read ~from:!cursor ~len:r.chunk with
                  | recs ->
                    if in_window then
                      Stats.Reservoir.add read_lat (Engine.now () - t0);
                    incr reads_done;
                    if List.length recs <> r.chunk then begin
                      error "read at %d returned %d of %d records" !cursor
                        (List.length recs) r.chunk;
                      stop := true
                    end
                    else if not (List.for_all (valid_record spec) recs) then
                    begin
                      error "read at %d returned a foreign record" !cursor;
                      stop := true
                    end
                    else cursor := !cursor + r.chunk
                  | exception e ->
                    incr failed;
                    error "read at %d raised %s" !cursor (Printexc.to_string e);
                    stop := true
                end
              done;
              decr active_readers;
              Waitq.broadcast drained))
        readers;
      Engine.sleep_until t_end;
      if
        not
          (Waitq.await_timeout drained ~timeout:(Engine.ms 500) (fun () ->
               !inflight = 0 && !active_readers = 0))
      then error "operations still in flight 500 ms after the window";
      (* Correctness, untimed: the tail lies between what was acked and
         what was attempted, and the whole log reads back contiguously
         with no duplicate rid and only records this workload wrote. *)
      let checker = client () in
      let acked = Vec.length acks in
      let tail = checker.Log_api.check_tail () in
      if tail < acked then error "check_tail %d < acked %d" tail acked;
      if tail > !appends then error "check_tail %d > attempted %d" tail !appends;
      let seen = Hashtbl.create (max 16 tail) in
      let pos = ref 0 in
      while !pos < tail && !errors = [] do
        let len = min 4096 (tail - !pos) in
        (match checker.Log_api.read ~from:!pos ~len with
        | recs ->
          if List.length recs <> len then
            error "read-back at %d returned %d of %d" !pos (List.length recs)
              len;
          List.iteri
            (fun i (r : Types.record) ->
              if !errors = [] then begin
                if not (valid_record spec r) then
                  error "read-back: foreign record at %d" (!pos + i)
                else if Hashtbl.mem seen r.Types.rid then
                  error "read-back: duplicate rid at %d" (!pos + i);
                Hashtbl.replace seen r.Types.rid ()
              end)
            recs
        | exception e ->
          error "read-back at %d raised %s" !pos (Printexc.to_string e));
        pos := !pos + len
      done;
      let visible_lag, missing =
        visible_lags acks st_time st_gp ~t_measure ~t_end
      in
      if missing > 0 then error "%d acked records never became stable" missing;
      let unavail =
        match crash_at with
        | Some at -> crash_gap_ms acks ~crash_at:at
        | None -> steady_gap_ms acks ~t_measure ~t_end
      in
      (* Appends the crash held up: acked after it, invoked before the
         new view was installed. *)
      let stalled, stall_max =
        match (crash_at, List.rev cluster.Erwin_common.reconfig_log) with
        | Some at, first :: _ ->
          let installed = at + first.Erwin_common.total in
          List.fold_left
            (fun (n, worst) (t0, t1) ->
              if t0 < installed then (n + 1, max worst (t1 - t0)) else (n, worst))
            (0, 0) !crash_ops
        | _ -> (0, 0)
      in
      let m = cluster.Erwin_common.metrics in
      {
        spec;
        t_measure;
        t_end;
        append_lat;
        read_lat;
        visible_lag;
        unavail;
        live_words = !live;
        attempted = !appends + !reads;
        failed = !failed;
        s0 = Option.get !s0;
        s1 = Option.get !s1;
        reads_in_window = !reads_in_window;
        slow_reads = !slow_reads;
        ref_ns = !ref_ns;
        ref_cpu = !ref_cpu;
        gauges;
        samples = !samples;
        stable_lag_p50_us = Stats.Reservoir.percentile_us m.stable_lag 50.0;
        stable_lag_p99_us = Stats.Reservoir.percentile_us m.stable_lag 99.0;
        largest_batch = m.largest_batch;
        reconfig = cluster.Erwin_common.reconfig_log;
        stalled;
        stall_max;
        errors = List.rev !errors;
      })

(* CPU seconds to build the cluster and its client handles, as in [run],
   without driving any load. *)
let setup_cpu ~seed spec =
  Runner.in_sim ~seed (fun () ->
      let c0 = cpu () in
      let _, client = make_cluster spec in
      let readers = match spec.reading with Some r -> r.readers | None -> 0 in
      for _ = 1 to spec.producers + readers do
        ignore (client () : Log_api.t)
      done;
      cpu () -. c0)
