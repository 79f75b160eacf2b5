type t = Random.State.t

let create ~seed = Random.State.make [| seed; 0x9e3779b9 |]

let split t = Random.State.make [| Random.State.bits t; Random.State.bits t |]

let int t n = Random.State.int t n

let float t x = Random.State.float t x

let bool t ~p = Random.State.float t 1.0 < p

let exponential t ~mean =
  (* Inverse-CDF sampling; guard against log 0. *)
  let u = 1.0 -. Random.State.float t 1.0 in
  -.mean *. log u

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(Random.State.int t (Array.length arr))

module Zipf = struct
  (* Standard YCSB zipfian generator (Gray et al., "Quickly Generating
     Billion-Record Synthetic Databases"). *)
  type gen = {
    rng : t;
    n : int;
    theta : float;
    alpha : float;
    zetan : float;
    eta : float;
  }

  let zeta n theta =
    let acc = ref 0.0 in
    for i = 1 to n do
      acc := !acc +. (1.0 /. (float_of_int i ** theta))
    done;
    !acc

  let create rng ~n ~theta =
    if n <= 0 then invalid_arg "Zipf.create: n must be positive";
    let zetan = zeta n theta in
    let zeta2 = zeta 2 theta in
    let alpha = 1.0 /. (1.0 -. theta) in
    let eta =
      (1.0 -. ((2.0 /. float_of_int n) ** (1.0 -. theta)))
      /. (1.0 -. (zeta2 /. zetan))
    in
    { rng; n; theta; alpha; zetan; eta }

  let next g =
    let u = Random.State.float g.rng 1.0 in
    let uz = u *. g.zetan in
    if uz < 1.0 then 0
    else if uz < 1.0 +. (0.5 ** g.theta) then 1
    else
      let x =
        float_of_int g.n
        *. (((g.eta *. u) -. g.eta +. 1.0) ** g.alpha)
      in
      let k = int_of_float x in
      if k >= g.n then g.n - 1 else if k < 0 then 0 else k
end
