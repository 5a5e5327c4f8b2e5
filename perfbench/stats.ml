(* Quantiles and ratios over measured samples; an empty sample reads 0. *)

let quantile xs q =
  match xs with
  | [] -> 0.0
  | _ ->
    let sorted = Array.of_list xs in
    Array.sort compare sorted;
    Thc_util.Stats.percentile sorted q

let median xs = quantile xs 0.5

let ratio a b = if b = 0.0 then 0.0 else a /. b
