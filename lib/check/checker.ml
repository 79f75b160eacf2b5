open Ll_sim
open Lazylog

let default_horizon = Engine.ms 60
let quick_horizon = Engine.ms 25

(* The checker's base configuration: default calibration, but a short
   append timeout so client retries (the interesting recovery paths) fire
   within the short exploration horizon. *)
let config_of (sc : Artifact.scenario) =
  let cfg = Config.with_shards Config.default sc.shards in
  let cfg = { cfg with Config.append_timeout = Engine.ms 2 } in
  let cfg =
    List.fold_left (fun cfg m -> (Mode.info m).Mode.config cfg) cfg sc.modes
  in
  match sc.bug with
  | None -> cfg
  | Some "no-pinning" -> { cfg with Config.debug_no_rid_pinning = true }
  | Some b -> failwith ("lazylog_check: unknown bug gate " ^ b)

(* The fault script is a pure function of (seed, horizon, topology): a
   seed alone reproduces a generated run. Distinct salt from the engine's
   rng streams. *)
let scenario ~system ~seed ?(shards = 2) ?(modes = []) ?bug
    ?(horizon = default_horizon) () : Artifact.scenario =
  let rng = Random.State.make [| seed; 0xfa017 |] in
  let script =
    Fault_dsl.gen ~gray:(List.mem Mode.Gray modes) rng ~horizon
      ~nreplicas:Config.default.Config.seq_replica_count ~nshards:shards
  in
  { Artifact.system; seed; shards; modes; bug; horizon; script }

type outcome = {
  scenario : Artifact.scenario;
  violation : Monitors.violation option;
  coverage : Monitors.coverage;
}

let client_for ?log (sc : Artifact.scenario) cluster =
  match sc.system with
  | "erwin-m" -> Erwin_m.client ?log cluster
  | "erwin-st" -> Erwin_st.client ?log cluster
  | s -> failwith ("lazylog_check: unknown system " ^ s)

let create_cluster (sc : Artifact.scenario) cfg =
  match sc.system with
  | "erwin-m" -> Erwin_m.create ~cfg ()
  | "erwin-st" -> Erwin_st.create ~cfg ()
  | s -> failwith ("lazylog_check: unknown system " ^ s)

let nwriters = 4

let run_one (sc : Artifact.scenario) : outcome =
  let cfg = config_of sc in
  let has m = List.mem m sc.Artifact.modes in
  let monitor = ref None in
  let slack =
    List.fold_left
      (fun s m -> max s (Mode.info m).Mode.slack)
      (Engine.ms 10) sc.modes
  in
  let rpc_before = Ll_net.Rpc.counters () in
  let run () =
    Engine.run ~seed:sc.seed ~perturb:true ~until:(sc.horizon + slack)
      (fun () ->
        Probe.reset ();
        let cluster = create_cluster sc cfg in
        let stopped = ref false in
        let mon =
          Monitors.install cluster ~on_violation:(fun _ ->
              (* Stop at the first violation so its event counter marks
                 the earliest detection point. *)
              if not !stopped then begin
                stopped := true;
                Engine.stop ()
              end)
        in
        monitor := Some mon;
        Fault_dsl.apply cluster sc.script;
        if has Mode.Subscriptions then begin
          let mgr = Ll_stream.Manager.start cluster in
          let mid = Ll_stream.Manager.endpoint_id mgr in
          (* Two pushed consumers; sub-b is crashed and restarted twice
             mid-run — including windows where an ack is likely in
             flight — to exercise redelivery, epoch bumps, and dedup on
             top of whatever the fault script does to the cluster. *)
          Engine.spawn ~name:"check.sub-a" (fun () ->
              ignore
                (Ll_stream.Subscriber.create cluster ~manager:mid
                   ~name:"sub-a" ()
                  : Ll_stream.Subscriber.t));
          Engine.spawn ~name:"check.sub-b" (fun () ->
              let sb =
                Ll_stream.Subscriber.create cluster ~manager:mid ~name:"sub-b"
                  ~consume:(Engine.us 2) ()
              in
              let cycle at =
                Engine.sleep_until at;
                Ll_stream.Subscriber.crash sb;
                Engine.sleep (Engine.ms 3);
                Ll_stream.Subscriber.restart sb
              in
              cycle (sc.horizon * 2 / 5);
              cycle (sc.horizon * 4 / 5))
        end;
        for c = 0 to nwriters - 1 do
          (* Tenants mode: each writer owns a tenant log (writer 0 stays
             on the legacy log 0), so every per-log invariant sees
             concurrent independent streams. *)
          let log =
            client_for sc cluster
              ?log:(if has Mode.Tenants then Some c else None)
          in
          let rng =
            Rng.create ~seed:(Random.State.bits (Engine.random_state ()))
          in
          Engine.spawn ~name:(Printf.sprintf "check.writer%d" c) (fun () ->
              let i = ref 0 in
              while Engine.now () < sc.horizon do
                incr i;
                ignore
                  (log.Log_api.append
                     ~size:(64 + Rng.int rng 192)
                     ~data:(Printf.sprintf "w%d.%d" c !i)
                    : bool);
                Engine.sleep (Engine.us (30 + Rng.int rng 120))
              done)
        done;
        if has Mode.Tenants then begin
          (* Aggressor tenant: bursts of back-to-back appends on its own
             log, timed so the fault script's windows land mid-burst on
             many seeds. Fair ingress must keep the victims' invariants
             (and progress) intact; shed appends simply retry. *)
          for a = 0 to 23 do
            let agg = client_for sc cluster ~log:nwriters in
            Engine.spawn
              ~name:(Printf.sprintf "check.aggressor%d" a)
              (fun () ->
                let i = ref 0 in
                while Engine.now () < sc.horizon do
                  let burst_until = Engine.now () + (sc.horizon / 5) in
                  while Engine.now () < min burst_until sc.horizon do
                    incr i;
                    ignore
                      (agg.Log_api.append ~size:512
                         ~data:(Printf.sprintf "agg%d.%d" a !i)
                        : bool)
                  done;
                  Engine.sleep (sc.horizon / 10)
                done)
          done;
          (* A tenant-scoped reader alongside the legacy log-0 reader:
             read agreement under the packed keyspace. *)
          let tlog = client_for sc cluster ~log:1 in
          let trng =
            Rng.create ~seed:(Random.State.bits (Engine.random_state ()))
          in
          Engine.spawn ~name:"check.tenant-reader" (fun () ->
              while Engine.now () < sc.horizon do
                Engine.sleep (Engine.us (300 + Rng.int trng 500));
                let stable =
                  Logid.pos_of (Erwin_common.stable_for cluster ~log:1)
                in
                if stable > 0 then begin
                  let len = min stable 8 in
                  ignore
                    (tlog.Log_api.read
                       ~from:(Rng.int trng (stable - len + 1))
                       ~len
                      : Types.record list)
                end
              done)
        end;
        let rlog = client_for sc cluster in
        let rrng =
          Rng.create ~seed:(Random.State.bits (Engine.random_state ()))
        in
        Engine.spawn ~name:"check.reader" (fun () ->
            while Engine.now () < sc.horizon do
              Engine.sleep (Engine.us (200 + Rng.int rrng 400));
              let stable = cluster.Erwin_common.stable_gp in
              if stable > 0 then begin
                let len = min stable 8 in
                let from =
                  if has Mode.Replica_reads then
                    (* Reads-at-tail workload: straddle the stable frontier
                       so demand binding, backup serving and forwarding all
                       fire (writers keep appending, so the beyond-stable
                       half binds within the horizon). *)
                    max 0 (stable - (len / 2))
                  else Rng.int rrng (stable - len + 1)
                in
                ignore (rlog.Log_api.read ~from ~len : Types.record list)
              end
            done);
        let subs = has Mode.Subscriptions and gray = has Mode.Gray in
        if subs || gray then
          (* Drain, then audit: wait until the stable prefix stops
             advancing — and, for subscription runs, every subscription
             has caught up with it — bounded by the run's slack (a push
             stuck in a retry loop behind a fault window still gets
             through once it heals). Gray runs additionally audit
             progress (every acked record bound, stable advanced), but
             only when the drain actually settled: at the deadline with
             stable still moving or a reconfiguration in flight, the
             audit would read in-flight bindings as losses. *)
          Engine.spawn ~name:"check.drain" (fun () ->
              Engine.sleep_until (sc.horizon + Engine.ms 5);
              let deadline = sc.horizon + slack - Engine.ms 10 in
              let rec wait () =
                let s = cluster.Erwin_common.stable_gp in
                Engine.sleep (Engine.ms 1);
                let settled =
                  cluster.Erwin_common.stable_gp = s
                  && (not cluster.Erwin_common.reconfiguring)
                  && ((not subs) || Monitors.subs_caught_up mon)
                  (* A quiescent stable prefix is not enough in gray
                     mode: an orderer push lost to a fault window only
                     redrives after its RPC timeout, so keep draining
                     while acked records await binding. Only the
                     deadline turns that wait into a violation. *)
                  && ((not gray) || not (Monitors.progress_pending mon))
                in
                if Engine.now () >= deadline || settled then begin
                  if subs then Monitors.finalize_delivery mon;
                  if gray then Monitors.finalize_progress mon;
                  if not !stopped then Engine.stop ()
                end
                else wait ()
              in
              wait ())
        else Engine.at (sc.horizon + Engine.ms 5) (fun () -> Engine.stop ()))
  in
  let exn_violation =
    match run () with
    | () -> None
    | exception e ->
      Some
        {
          Monitors.invariant = "exception";
          detail = Printexc.to_string e;
          at_time = 0;
          at_event = Engine.events_executed ();
        }
  in
  let violation, coverage =
    match !monitor with
    | Some mon -> (
      ( (match Monitors.first mon with Some v -> Some v | None -> exn_violation),
        Monitors.coverage mon ))
    | None -> (exn_violation, Monitors.empty_coverage ())
  in
  let rpc =
    Ll_net.Rpc.counters_diff ~before:rpc_before ~after:(Ll_net.Rpc.counters ())
  in
  coverage.runs <- 1;
  coverage.violations <- (if violation = None then 0 else 1);
  coverage.events <- Engine.events_executed ();
  coverage.retries <- rpc.Ll_net.Rpc.cs_retries;
  coverage.hedges_won <- rpc.Ll_net.Rpc.cs_hedges_won;
  { scenario = sc; violation; coverage }

(* ---------- greedy fault-script shrinking ---------- *)

let reproduces (sc : Artifact.scenario) invariant =
  match (run_one sc).violation with
  | Some v -> v.Monitors.invariant = invariant
  | None -> false

(* Repeatedly try dropping one step; keep any removal that preserves the
   violation (same invariant). Terminates: every accepted step strictly
   shrinks the script. *)
let shrink (sc : Artifact.scenario) (v : Monitors.violation) =
  let rec go script =
    let n = List.length script in
    let rec try_idx i =
      if i >= n then script
      else begin
        let cand = List.filteri (fun j _ -> j <> i) script in
        if reproduces { sc with Artifact.script = cand } v.Monitors.invariant
        then go cand
        else try_idx (i + 1)
      end
    in
    try_idx 0
  in
  { sc with Artifact.script = go sc.Artifact.script }

let artifact_of (o : outcome) : Artifact.t option =
  match o.violation with
  | None -> None
  | Some v ->
    Some
      {
        Artifact.scenario = o.scenario;
        invariant = v.Monitors.invariant;
        detail = v.Monitors.detail;
        at_event = v.Monitors.at_event;
        at_time = v.Monitors.at_time;
      }

(* ---------- parallel sweep ----------

   Engine and probe state are domain-local, so scenarios parallelize over
   OS domains with no shared simulator state: workers claim scenario
   indices from an atomic counter and write into distinct result slots. *)

let sweep ~jobs (scenarios : Artifact.scenario list) : outcome list =
  let scens = Array.of_list scenarios in
  let n = Array.length scens in
  let results : outcome option array = Array.make n None in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (run_one scens.(i));
        loop ()
      end
    in
    loop ()
  in
  let jobs = max 1 (min jobs n) in
  let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join domains;
  Array.to_list results
  |> List.map (function
       | Some o -> o
       | None -> failwith "lazylog_check: sweep lost a result")

(* ---------- coverage summary ---------- *)

let summary (outcomes : outcome list) =
  (* Summed per system in a [Hashtbl]; its iteration order fixes the
     order of the systems' blocks. *)
  let by_system = Hashtbl.create 4 in
  List.iter
    (fun o ->
      let sys = o.scenario.Artifact.system in
      let sum =
        match Hashtbl.find_opt by_system sys with
        | Some sum -> sum
        | None ->
          let sum = Monitors.empty_coverage () in
          Hashtbl.replace by_system sys sum;
          sum
      in
      Monitors.add_coverage sum o.coverage)
    outcomes;
  let b = Buffer.create 512 in
  Buffer.add_string b "coverage summary\n";
  Hashtbl.iter
    (fun sys (c : Monitors.coverage) ->
      Printf.bprintf b
        "  %-8s %4d seeds | %d violations | %d appends acked | %d records \
         read | %d crashes | %d view installs | %d delivered | %.1fM events\n"
        sys c.runs c.violations c.acked c.reads c.crashes c.view_installs
        c.delivered
        (float_of_int c.events /. 1e6);
      (* Gray-resilience line only when something gray happened, so the
         classic sweeps print exactly what they always did. *)
      if c.gray_faults + c.outliers_removed + c.retries + c.hedges_won > 0
      then
        Printf.bprintf b
          "  %-8s      gray | %d gray faults | %d outliers evicted | %d \
           retries | %d hedges won\n"
          "" c.gray_faults c.outliers_removed c.retries c.hedges_won;
      (* Tenants line only in multi-log fabric sweeps, same principle. *)
      if c.tenant_logs + c.ingress_shed > 0 then
        Printf.bprintf b
          "  %-8s   tenants | %d tenant-log stabilizations | %d appends \
           shed by admission control\n"
          "" c.tenant_logs c.ingress_shed)
    by_system;
  Buffer.contents b
