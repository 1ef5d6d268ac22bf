type figure = Fig3a | Fig3b | Fig4a | Fig4b

let all = [ Fig3a; Fig3b; Fig4a; Fig4b ]
let id = function Fig3a -> "fig3a" | Fig3b -> "fig3b" | Fig4a -> "fig4a" | Fig4b -> "fig4b"

let caption = function
  | Fig3a -> "Figure 3(a): 4 tasks, unconstrained execution time and area size distributions"
  | Fig3b -> "Figure 3(b): 10 tasks, unconstrained execution time and area size distributions"
  | Fig4a -> "Figure 4(a): 10 spatially heavy and temporally light tasks"
  | Fig4b -> "Figure 4(b): 10 spatially light and temporally heavy tasks"

let profile = function
  | Fig3a -> Model.Generator.unconstrained ~n:4
  | Fig3b -> Model.Generator.unconstrained ~n:10
  | Fig4a -> Model.Generator.spatially_heavy_temporally_light ~n:10
  | Fig4b -> Model.Generator.spatially_light_temporally_heavy ~n:10

let config ?samples ?seed ?sim_horizon figure =
  let p = profile figure in
  let base = Sweep.default_config ~profile:p in
  let base = match samples with Some s -> { base with Sweep.samples = s } | None -> base in
  let base = match seed with Some s -> { base with Sweep.seed = s } | None -> base in
  let base =
    match sim_horizon with Some h -> { base with Sweep.sim_horizon = h } | None -> base
  in
  let base =
    match figure with
    | Fig4b ->
      (* temporally-heavy utilizations (0.6,1) leave almost no room for
         the rescaling trick, so bucket unconditioned draws as the paper
         does; the natural US of this profile spans roughly 40-125 *)
      {
        base with
        Sweep.conditioning = Sweep.Binned;
        Sweep.targets = List.init 22 (fun i -> float_of_int ((i + 4) * 5));
      }
    | Fig3a | Fig3b | Fig4a -> base
  in
  let reachable = Model.Generator.max_reachable_us p in
  { base with Sweep.targets = List.filter (fun u -> u <= reachable *. 0.95) base.Sweep.targets }
