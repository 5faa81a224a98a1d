type t = int array

let unassigned = -1
let make n = Array.make n unassigned

let of_array a =
  Array.iter (fun c -> if c < -1 then invalid_arg "Solution.of_array: bad color") a;
  Array.copy a

let to_array = Array.copy
let copy = Array.copy
let length = Array.length
let get (s : t) u = s.(u)
let set (s : t) u c = s.(u) <- c
let is_complete s = Array.for_all (fun c -> c <> unassigned) s

let cost_gen ~partial g s =
  if Array.length s <> Graph.capacity g then invalid_arg "Solution.cost: length mismatch";
  let m = Graph.m g in
  Array.iter
    (fun c -> if c >= m then invalid_arg "Solution.cost: color out of range")
    s;
  let vertex_costs =
    List.fold_left
      (fun acc u ->
        let c = s.(u) in
        if c = unassigned then if partial then acc else Cost.inf
        else Cost.add acc (Vec.get (Graph.cost g u) c))
      Cost.zero (Graph.vertices g)
  in
  Graph.fold_edges
    (fun u v muv acc ->
      let cu = s.(u) and cv = s.(v) in
      if cu = unassigned || cv = unassigned then
        if partial then acc else Cost.inf
      else Cost.add acc (Mat.get muv cu cv))
    g vertex_costs

let cost g s = cost_gen ~partial:false g s
let partial_cost g s = cost_gen ~partial:true g s
let valid g s = is_complete s && Cost.is_finite (cost g s)
let equal (a : t) (b : t) = a = b

let pp ppf s =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       (fun ppf c ->
         if c = unassigned then Format.pp_print_string ppf "_"
         else Format.pp_print_int ppf c))
    (Array.to_list s)
