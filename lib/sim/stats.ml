module Reservoir = struct
  type t = {
    name : string;
    mutable data : int array;
    mutable size : int;
    mutable sorted : bool;
  }

  let create ?(name = "latency") () =
    { name; data = [||]; size = 0; sorted = true }

  let add t ns =
    let cap = Array.length t.data in
    if t.size >= cap then begin
      let ncap = if cap = 0 then 1024 else cap * 2 in
      let ndata = Array.make ncap 0 in
      Array.blit t.data 0 ndata 0 t.size;
      t.data <- ndata
    end;
    t.data.(t.size) <- ns;
    t.size <- t.size + 1;
    t.sorted <- false

  let count t = t.size

  (* Int.compare, not polymorphic compare: reservoirs hold millions of
     samples after a bench run and the polymorphic path dominates
     post-processing cost. *)
  let ensure_sorted t =
    if not t.sorted then begin
      if t.size = Array.length t.data then Array.sort Int.compare t.data
      else begin
        let sub = Array.sub t.data 0 t.size in
        Array.sort Int.compare sub;
        Array.blit sub 0 t.data 0 t.size
      end;
      t.sorted <- true
    end

  let mean_us t =
    if t.size = 0 then nan
    else begin
      let sum = ref 0.0 in
      for i = 0 to t.size - 1 do
        sum := !sum +. float_of_int t.data.(i)
      done;
      !sum /. float_of_int t.size /. 1_000.
    end

  let percentile_us t p =
    if t.size = 0 then nan
    else begin
      ensure_sorted t;
      let rank = p /. 100.0 *. float_of_int (t.size - 1) in
      let lo = int_of_float rank in
      let hi = if lo + 1 < t.size then lo + 1 else lo in
      let a = t.data.(lo) and b = t.data.(hi) in
      if a = b then float_of_int a /. 1_000.
      else begin
        let frac = rank -. float_of_int lo in
        ((float_of_int a *. (1.0 -. frac)) +. (float_of_int b *. frac))
        /. 1_000.
      end
    end

  let min_us t = percentile_us t 0.0
  let max_us t = percentile_us t 100.0

  let stddev_us t =
    if t.size < 2 then 0.0
    else begin
      let m = mean_us t *. 1_000. in
      let acc = ref 0.0 in
      for i = 0 to t.size - 1 do
        let d = float_of_int t.data.(i) -. m in
        acc := !acc +. (d *. d)
      done;
      sqrt (!acc /. float_of_int (t.size - 1)) /. 1_000.
    end

  let cdf t ~points =
    if t.size = 0 then []
    else begin
      ensure_sorted t;
      let out = ref [] in
      for i = points downto 1 do
        let pct = 100.0 *. float_of_int i /. float_of_int points in
        let idx =
          int_of_float (float_of_int (t.size - 1) *. pct /. 100.0)
        in
        out := (float_of_int t.data.(idx) /. 1_000., pct) :: !out
      done;
      !out
    end

  let merge ts =
    let m = create ~name:"merged" () in
    List.iter
      (fun t ->
        for i = 0 to t.size - 1 do
          add m t.data.(i)
        done)
      ts;
    m

  let clear t =
    t.size <- 0;
    t.sorted <- true

  let name t = t.name
end

module Timeline = struct
  type t = { bin : Engine.time; counts : (int, int ref) Hashtbl.t }

  let create ~bin = { bin; counts = Hashtbl.create 64 }

  let record_n t ~at ~n =
    let b = at / t.bin in
    match Hashtbl.find_opt t.counts b with
    | Some r -> r := !r + n
    | None -> Hashtbl.add t.counts b (ref n)

  let record t ~at = record_n t ~at ~n:1

  let series t =
    let bins =
      Hashtbl.fold (fun b r acc -> (b, !r) :: acc) t.counts []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    let bin_sec = Engine.to_sec t.bin in
    List.map
      (fun (b, n) ->
        (float_of_int b *. bin_sec, float_of_int n /. bin_sec))
      bins

  let total t = Hashtbl.fold (fun _ r acc -> acc + !r) t.counts 0
end

let throughput_per_sec ~count ~dur =
  if dur <= 0 then 0.0 else float_of_int count /. Engine.to_sec dur
