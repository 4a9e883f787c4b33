(* Interval-set regions with saturating bound arithmetic. min_int/max_int
   stand for -oo/+oo; every operation keeps that reading consistent so a
   fixpoint over regions can widen bounds to infinity and stay sound. *)

type itv = { lo : int; hi : int }

let neg_inf = min_int
let pos_inf = max_int

let itv lo hi =
  if lo > hi then invalid_arg "Regions.itv: lo > hi";
  { lo; hi }

let itv_point n = { lo = n; hi = n }
let itv_full = { lo = neg_inf; hi = pos_inf }

let itv_join a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let itv_meet a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

let itv_leq a b = a.lo >= b.lo && a.hi <= b.hi
let itv_equal a b = a.lo = b.lo && a.hi = b.hi

let itv_widen a b =
  { lo = (if b.lo < a.lo then neg_inf else a.lo);
    hi = (if b.hi > a.hi then pos_inf else a.hi) }

(* Bound sums: infinities absorb, finite overflow saturates. A lower
   bound prefers -oo, an upper bound +oo, so [add_lo]/[add_hi] are used
   on the matching side of an interval. *)
let add_lo x y =
  if x = neg_inf || y = neg_inf then neg_inf
  else if x = pos_inf || y = pos_inf then pos_inf
  else
    let s = x + y in
    if x > 0 && y > 0 && s < 0 then pos_inf
    else if x < 0 && y < 0 && s >= 0 then neg_inf
    else s

let add_hi x y =
  if x = pos_inf || y = pos_inf then pos_inf
  else if x = neg_inf || y = neg_inf then neg_inf
  else
    let s = x + y in
    if x > 0 && y > 0 && s < 0 then pos_inf
    else if x < 0 && y < 0 && s >= 0 then neg_inf
    else s

let itv_add a b = { lo = add_lo a.lo b.lo; hi = add_hi a.hi b.hi }

let neg_bound x =
  if x = neg_inf then pos_inf else if x = pos_inf then neg_inf else -x

let itv_neg a = { lo = neg_bound a.hi; hi = neg_bound a.lo }
let itv_sub a b = itv_add a (itv_neg b)

let sign x = compare x 0

let mul_sat x y =
  if x = 0 || y = 0 then 0
  else if x = neg_inf || x = pos_inf || y = neg_inf || y = pos_inf then
    if sign x * sign y > 0 then pos_inf else neg_inf
  else
    let p = x * y in
    if p / y <> x then if sign x * sign y > 0 then pos_inf else neg_inf
    else p

let corners f a b =
  let cs = [ f a.lo b.lo; f a.lo b.hi; f a.hi b.lo; f a.hi b.hi ] in
  { lo = List.fold_left min (List.hd cs) (List.tl cs);
    hi = List.fold_left max (List.hd cs) (List.tl cs) }

let itv_mul a b = corners mul_sat a b

let itv_div a b =
  if b.lo <= 0 && b.hi >= 0 then itv_full
    (* divisor may be zero: the concrete run would crash, anything is a
       sound post-state *)
  else if a.lo = neg_inf || a.hi = pos_inf || b.lo = neg_inf || b.hi = pos_inf
  then
    (* |x/y| <= |x| for any nonzero integer divisor *)
    let m = max (neg_bound a.lo) a.hi in
    if m = pos_inf then itv_full else { lo = -m; hi = m }
  else corners (fun x y -> x / y) a b

let itv_rem a b =
  if b.lo <= 0 && b.hi >= 0 then itv_full
  else if b.lo = neg_inf || b.hi = pos_inf then
    (* result sign follows the dividend, magnitude bounded by it *)
    { lo = min 0 a.lo; hi = max 0 a.hi }
  else
    let d = max (neg_bound b.lo) b.hi in
    let lo = if a.lo >= 0 then 0 else max (-(d - 1)) a.lo in
    let hi = if a.hi <= 0 then 0 else min (d - 1) a.hi in
    { lo; hi }

let pp_bound ppf x =
  if x = neg_inf then Format.pp_print_string ppf "-oo"
  else if x = pos_inf then Format.pp_print_string ppf "+oo"
  else Format.pp_print_int ppf x

let pp_itv ppf { lo; hi } =
  if lo = hi then pp_bound ppf lo
  else Format.fprintf ppf "%a..%a" pp_bound lo pp_bound hi

(* ---- regions -------------------------------------------------------------- *)

type t = Bot | Segs of itv list | Top

let bot = Bot
let top = Top

(* Beyond this many disjoint segments, collapse to the hull: keeps joins
   cheap and the lattice height finite even without widening. *)
let max_segs = 16

let hull_of_segs = function
  | [] -> None
  | s :: rest ->
      Some (List.fold_left (fun acc i -> itv_join acc i) s rest)

(* Sort and coalesce overlapping or adjacent intervals. *)
let normalize segs =
  match List.sort (fun a b -> compare (a.lo, a.hi) (b.lo, b.hi)) segs with
  | [] -> Bot
  | s :: rest ->
      let merged =
        List.fold_left
          (fun acc i ->
            match acc with
            | [] -> [ i ]
            | cur :: tl ->
                if cur.hi = pos_inf || i.lo <= add_hi cur.hi 1 then
                  itv_join cur i :: tl
                else i :: cur :: tl)
          [ s ] rest
        |> List.rev
      in
      let merged =
        if List.length merged > max_segs then
          match hull_of_segs merged with Some h -> [ h ] | None -> []
        else merged
      in
      (match merged with
      | [ i ] when i.lo = neg_inf && i.hi = pos_inf -> Top
      | segs -> Segs segs)

let of_itv i = normalize [ i ]
let point n = of_itv (itv_point n)
let interval lo hi = of_itv (itv lo hi)
let of_list cells = normalize (List.map itv_point cells)

let is_bot r = r = Bot

let mem n = function
  | Bot -> false
  | Top -> true
  | Segs segs -> List.exists (fun i -> i.lo <= n && n <= i.hi) segs

let join a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | Bot, r | r, Bot -> r
  | Segs x, Segs y -> normalize (x @ y)

let meet a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Top, r | r, Top -> r
  | Segs x, Segs y ->
      normalize
        (List.concat_map
           (fun i -> List.filter_map (fun j -> itv_meet i j) y)
           x)

let leq a b =
  match (a, b) with
  | Bot, _ -> true
  | _, Bot -> false
  | _, Top -> true
  | Top, _ -> false
  | Segs x, Segs y ->
      List.for_all
        (fun i -> List.exists (fun j -> itv_leq i j) y)
        x

let equal a b =
  match (a, b) with
  | Bot, Bot | Top, Top -> true
  | Segs x, Segs y ->
      List.length x = List.length y && List.for_all2 itv_equal x y
  | _ -> false

let hull = function
  | Bot -> None
  | Top -> Some itv_full
  | Segs segs -> hull_of_segs segs

(* Widening: once a region grows, collapse both sides to their hulls and
   send the unstable bounds to infinity. A chain r, widen r r', ... thus
   reaches a fixed single interval in at most three steps. *)
let widen a b =
  if leq b a then a
  else
    match (a, b) with
    | Bot, r -> r
    | Top, _ | _, Top -> Top
    | _ -> (
        match (hull a, hull b) with
        | Some ha, Some hb -> of_itv (itv_widen ha (itv_join ha hb))
        | _ -> Top)

(* The scheduler-facing names: [inter] is exact set intersection on this
   lattice (meet of Segs is precise, not an over-approximation), so
   [disjoint] is a definite no-common-cell fact — what the interference
   analysis needs to prove before two footprints may run on separate
   domains. *)
let inter = meet

let disjoint a b = is_bot (meet a b)

let clamp ~lo ~hi r = meet r (interval lo hi)

let clamp_global env name r =
  match Minic.Check.extent env name with
  | Some (lo, hi) -> clamp ~lo ~hi r
  | None -> r

let complement_in ~lo ~hi r =
  match clamp ~lo ~hi r with
  | Bot -> interval lo hi
  | Top -> Bot
  | Segs segs ->
      (* Walk the gaps of the clamped region inside [lo, hi]. *)
      let rec gaps acc cursor = function
        | [] -> if cursor <= hi then itv cursor hi :: acc else acc
        | i :: rest ->
            let acc =
              if cursor < i.lo then itv cursor (i.lo - 1) :: acc else acc
            in
            if i.hi >= hi then acc else gaps acc (i.hi + 1) rest
      in
      normalize (gaps [] lo segs)

let pp ppf = function
  | Bot -> Format.pp_print_string ppf "."
  | Top -> Format.pp_print_string ppf "*"
  | Segs segs ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
        pp_itv ppf segs

(* ---- region maps ---------------------------------------------------------- *)

module Gid_map = Map.Make (Int)

type map = t Gid_map.t

let map_empty = Gid_map.empty

let map_merge f = Gid_map.union (fun _ a b -> Some (f a b))

let map_join = map_merge join
let map_widen a b = map_merge widen a b

let region_of m gid =
  match Gid_map.find_opt gid m with Some r -> r | None -> Bot

let map_leq a b = Gid_map.for_all (fun gid r -> leq r (region_of b gid)) a

let map_add gid r m =
  if is_bot r then m
  else Gid_map.update gid (function None -> Some r | Some r' -> Some (join r r')) m

let pp_map env ppf m =
  let bindings = List.filter (fun (_, r) -> not (is_bot r)) (Gid_map.bindings m) in
  if bindings = [] then Format.pp_print_string ppf "{}"
  else
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (gid, r) ->
           let name = Minic.Check.global_name env gid in
           if Minic.Check.is_global_array env name then
             Format.fprintf ppf "%s[%a]" name pp r
           else Format.pp_print_string ppf name))
      bindings
