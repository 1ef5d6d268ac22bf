let gens master n =
  if n < 0 then invalid_arg "Parallel.Det.gens: negative length";
  if n = 0 then [||]
  else begin
    let a = Array.make n master in
    (* explicit loop: the split order is the determinism contract *)
    for i = 0 to n - 1 do
      a.(i) <- Rng.split master
    done;
    a
  end

let seeds ~seed n = gens (Rng.create ~seed) n

let init ?chunk ?progress pool ~seed n f =
  let g = seeds ~seed n in
  Pool.init ?chunk ?progress pool n (fun i -> f g.(i) i)
