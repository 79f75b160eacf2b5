open Ll_sim

type op = Insert of int | Update of int | Read of int | Read_modify_write of int

type profile = Load | A | B | C | D | F

type gen = {
  rng : Rng.t;
  zipf : Rng.Zipf.gen;
  profile : profile;
  mutable inserted : int;
}

let create ?(seed = 3) ?(theta = 0.99) ~keyspace ~profile () =
  let rng = Rng.create ~seed in
  { rng; zipf = Rng.Zipf.create rng ~n:keyspace ~theta; profile; inserted = 0 }

let next g =
  match g.profile with
  | Load ->
    let k = g.inserted in
    g.inserted <- k + 1;
    Insert k
  | A ->
    if Rng.bool g.rng ~p:0.5 then Update (Rng.Zipf.next g.zipf)
    else Read (Rng.Zipf.next g.zipf)
  | B ->
    if Rng.bool g.rng ~p:0.05 then Update (Rng.Zipf.next g.zipf)
    else Read (Rng.Zipf.next g.zipf)
  | C -> Read (Rng.Zipf.next g.zipf)
  | D ->
    (* Read-latest: the working set trails the insertion frontier; reads
       target recently inserted keys with exponentially decaying recency. *)
    if Rng.bool g.rng ~p:0.05 || g.inserted = 0 then begin
      let k = g.inserted in
      g.inserted <- k + 1;
      Insert k
    end
    else begin
      let back = int_of_float (Rng.exponential g.rng ~mean:16.0) in
      let k = g.inserted - 1 - back in
      Read (if k < 0 then 0 else k)
    end
  | F ->
    if Rng.bool g.rng ~p:0.5 then Read (Rng.Zipf.next g.zipf)
    else Read_modify_write (Rng.Zipf.next g.zipf)

let value_bytes = 1024
