(* Engine A/B microharness: user-CPU-time measurement of the engine
   workloads from micro.ml. Wall-clock on a shared 1-vCPU box includes
   host steal time (see /proc/stat field 8), which swings 2x run to run;
   [Unix.times] user time excludes it, so this is the number to trust
   when comparing two engine builds. Usage:

     engine_ab.exe <workload> <n-events> <reps>

   Workloads: timer-callback | mixed-hop | deep-timer | deep-fiber |
   ready-ivar | ready-mailbox *)

let callback_chains n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let chains = 64 in
      let per = n / chains in
      for c = 0 to chains - 1 do
        let rec step i =
          if i < per then
            Engine.call_after
              ((((c * 31) + i) mod 97) + 1)
              (fun () -> step (i + 1))
        in
        step 0
      done)

let mixed_hops n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let chains = 64 in
      let per = n / chains in
      for c = 0 to chains - 1 do
        let rec hop i =
          if i < per then begin
            let r = ((c * 131) + (i * 7919)) mod 1000 in
            let d =
              if r < 700 then (r / 8) + 1
              else if r < 950 then ((r - 700) * 400) + 1000
              else ((r - 950) * 200_000) + 1_000_000
            in
            Engine.call_after d (fun () -> hop (i + 1))
          end
        in
        hop 0
      done)

let deep_timers n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let chains = 100_000 in
      let per = (n / chains) + 1 in
      for c = 0 to chains - 1 do
        let rec step i =
          if i < per then
            Engine.call_after
              (50_000 + (((c * 31) + (i * 7919)) mod 100_000))
              (fun () -> step (i + 1))
        in
        Engine.call_after ((c mod 50_000) + 1) (fun () -> step 0)
      done)

let deep_fiber_timers n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let chains = 100_000 in
      let per = (n / chains) + 1 in
      for c = 0 to chains - 1 do
        let rec step i =
          if i < per then
            Engine.after
              (50_000 + (((c * 31) + (i * 7919)) mod 100_000))
              (fun () -> step (i + 1))
        in
        Engine.after ((c mod 50_000) + 1) (fun () -> step 0)
      done)

(* Already-ready waits: the hot path every RPC reply and every drained
   queue hits — the ivar is full (or the mailbox non-empty) by the time
   the consumer blocks, so [read]/[recv] must return inline without a
   suspend/resume round trip through the scheduler. Engine.events stays
   near-flat here; the interesting number is ns per wait (wall-cpu /
   n), printed alongside the event rate. *)

let ready_ivar n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      for _i = 1 to n do
        let iv = Ivar.create () in
        Ivar.fill iv 42;
        ignore (Ivar.read iv : int)
      done)

let ready_mailbox n =
  Ll_sim.Engine.run (fun () ->
      let open Ll_sim in
      let mb = Mailbox.create () in
      for i = 1 to n do
        Mailbox.send mb i;
        ignore (Mailbox.recv mb : int)
      done)

let () =
  let workload = Sys.argv.(1) in
  let n = int_of_string Sys.argv.(2) in
  let reps = int_of_string Sys.argv.(3) in
  let f =
    match workload with
    | "timer-callback" -> callback_chains
    | "mixed-hop" -> mixed_hops
    | "deep-timer" -> deep_timers
    | "deep-fiber" -> deep_fiber_timers
    | "ready-ivar" -> ready_ivar
    | "ready-mailbox" -> ready_mailbox
    | w -> failwith ("unknown workload: " ^ w)
  in
  f (n / 10) (* warmup *);
  let best = ref infinity in
  for r = 1 to reps do
    let t0 = (Unix.times ()).tms_utime in
    f n;
    let dt = (Unix.times ()).tms_utime -. t0 in
    let ev = Ll_sim.Engine.events_executed () in
    let rate = float_of_int ev /. dt /. 1e6 in
    if dt < !best then best := dt;
    Printf.printf "  rep %d: %d events  %.1f ms cpu  %.2f Mev/s  %.1f ns/op\n%!"
      r ev (dt *. 1000.) rate
      (dt *. 1e9 /. float_of_int n)
  done;
  Printf.printf "%s best: %.1f ms cpu (%.1f ns/op over %d ops)\n%!" workload
    (!best *. 1000.) (!best *. 1e9 /. float_of_int n) n
