open Ll_sim

type arrivals =
  | Poisson
  | Uniform
  | Bursty of { factor : float; duty : float; period : Engine.time }
  | Diurnal of { amplitude : float; period : Engine.time }

(* Instantaneous rate multiplier at simulated time [now]. Normalized so
   the time-averaged multiplier is 1: [rate] stays the mean rate whatever
   the shape. Clamped away from zero so a trough never stalls the
   generator outright. *)
let local_mult arrivals ~now =
  match arrivals with
  | Poisson | Uniform -> 1.0
  | Bursty { factor; duty; period } ->
    let phase = float_of_int (now mod period) /. float_of_int period in
    let c = 1.0 /. ((duty *. factor) +. (1.0 -. duty)) in
    Float.max 0.01 (if phase < duty then factor *. c else c)
  | Diurnal { amplitude; period } ->
    let phase = float_of_int (now mod period) /. float_of_int period in
    Float.max 0.01 (1.0 +. (amplitude *. sin (2.0 *. Float.pi *. phase)))

let gap rng arrivals ~rate ~now =
  let mean_us = 1e6 /. (rate *. local_mult arrivals ~now) in
  match arrivals with
  | Uniform -> Engine.us_f mean_us
  | _ -> Engine.us_f (Rng.exponential rng ~mean:mean_us)

(* Without an explicit seed, derive one from the engine's master-seeded
   stream so workload arrivals reproduce from the single master seed. *)
let derive_seed = function
  | Some s -> s
  | None -> Random.State.bits (Engine.random_state ())

let open_loop ?(arrivals = Poisson) ?seed ~rate ~until op =
  let rng = Rng.create ~seed:(derive_seed seed) in
  Engine.spawn ~name:"open-loop" (fun () ->
      let rec loop i =
        if Engine.now () < until then begin
          Engine.spawn ~name:"op" (fun () -> op i);
          Engine.sleep (gap rng arrivals ~rate ~now:(Engine.now ()));
          loop (i + 1)
        end
      in
      loop 0)

let closed_loop ~clients ~until op =
  for c = 0 to clients - 1 do
    Engine.spawn ~name:(Printf.sprintf "closed-loop.%d" c) (fun () ->
        let rec loop i =
          if Engine.now () < until then begin
            op ~client:c i;
            loop (i + 1)
          end
        in
        loop 0)
  done
