type t =
  | Compi_default
  | No_reduction_bounded of int
  | No_reduction_unlimited
  | One_way
  | No_framework
  | Strategy_of of Concolic.Strategy.kind

let name = function
  | Compi_default -> "compi"
  | No_reduction_bounded b -> Printf.sprintf "nrbound(%d)" b
  | No_reduction_unlimited -> "nrunl"
  | One_way -> "one-way"
  | No_framework -> "no-fwk"
  | Strategy_of kind ->
    (match kind with
    | Concolic.Strategy.Bounded_dfs b -> Printf.sprintf "bounded-dfs(%d)" b
    | Concolic.Strategy.Random_branch -> "random-branch"
    | Concolic.Strategy.Uniform_random -> "uniform-random"
    | Concolic.Strategy.Cfg_directed _ -> "cfg"
    | Concolic.Strategy.Generational b -> Printf.sprintf "generational(%d)" b)

let apply t (settings : Driver.settings) =
  match t with
  | Compi_default -> settings
  | No_reduction_bounded bound ->
    {
      settings with
      Driver.reduce = false;
      depth_bound = Some bound;
      strategy = Driver.Fixed_strategy (Concolic.Strategy.Bounded_dfs bound);
    }
  | No_reduction_unlimited ->
    {
      settings with
      Driver.reduce = false;
      depth_bound = Some max_int;
      strategy = Driver.Fixed_strategy (Concolic.Strategy.Bounded_dfs max_int);
    }
  | One_way -> { settings with Driver.two_way = false }
  | No_framework -> { settings with Driver.framework = false }
  | Strategy_of kind -> { settings with Driver.strategy = Driver.Fixed_strategy kind }

let run t ~settings info =
  let settings = { Campaign.default_settings with Campaign.base = apply t settings } in
  (Campaign.run ~settings info).Campaign.summary
