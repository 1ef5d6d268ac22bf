(* exact-arith fixture: the plain-int Ticks instance named outside the
   generated ranged instances, as a value and as a module; the
   overflow-checked instance is fine. *)
[@@@redf.exact]

let wraps a b = Core.Ticks.Native.mul a b

module P = Core.Ticks.Native

let checked a b = Core.Ticks.Checked.mul a b
