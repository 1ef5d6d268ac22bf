(* An alias kept only because perfbench/ names Core.Json; everything
   else names Wire.Json. *)
include Wire.Json
