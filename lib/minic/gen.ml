open Ast

(* Combinators for building program text concisely. *)
let v x = E_var x
let n k = E_int k
let ( +: ) a b = E_binop (B_add, a, b)
let ( -: ) a b = E_binop (B_sub, a, b)
let ( *: ) a b = E_binop (B_mul, a, b)
let ( /: ) a b = E_binop (B_div, a, b)
let ( %: ) a b = E_binop (B_mod, a, b)
let ( <: ) a b = E_binop (B_lt, a, b)
let ( >: ) a b = E_binop (B_gt, a, b)
let ( >=: ) a b = E_binop (B_ge, a, b)
let ( ==: ) a b = E_binop (B_eq, a, b)
let idx a e = E_index (a, e)
let callv f args = E_call (f, args)
let assign x e = stmt (S_assign (x, e))
let store a i e = stmt (S_store (a, i, e))
let call f args = stmt (S_expr (E_call (f, args)))
let if_ c t e = stmt (S_if (c, t, e))
let while_ c b = stmt (S_while (c, b))
let return e = stmt (S_return (Some e))
let return_void = stmt (S_return None)
let local ?(init = 0) name = { v_name = name; v_typ = T_int; v_init = init }

let func ?(ret = T_void) name params locals body =
  { f_name = name; f_params = params; f_locals = locals; f_body = body;
    f_ret = ret }

let static_globals =
  [ "width"; "height"; "npixels"; "kernel"; "kdiv"; "threshold"; "nbuckets" ]

(* Nine 3x3 kernels (with divisors) for the generated filter pipeline:
   identity, box blur, sharpen, emboss, edge, gaussian-ish, motion,
   outline, ridge. Filters beyond the table reuse it with a rotation. *)
let kernels =
  [| ([ 0; 0; 0; 0; 1; 0; 0; 0; 0 ], 1);
     ([ 1; 1; 1; 1; 1; 1; 1; 1; 1 ], 9);
     ([ 0; -1; 0; -1; 5; -1; 0; -1; 0 ], 1);
     ([ -2; -1; 0; -1; 1; 1; 0; 1; 2 ], 1);
     ([ -1; -1; -1; -1; 8; -1; -1; -1; -1 ], 1);
     ([ 1; 2; 1; 2; 4; 2; 1; 2; 1 ], 16);
     ([ 1; 0; 0; 0; 1; 0; 0; 0; 1 ], 3);
     ([ -1; 0; -1; 0; 4; 0; -1; 0; -1 ], 1);
     ([ 0; 1; 0; 1; -4; 1; 0; 1; 0 ], 1) |]

(* A filter function with its own convolution loop nest: reads image,
   writes temp, then commits temp back into image. Each filter contributes
   a distinct batch of statements for the analysis engine. *)
let filter_func k =
  let taps, div = kernels.(k mod Array.length kernels) in
  let name = Printf.sprintf "filter_%d" k in
  let set_taps = List.mapi (fun t c -> store "kernel" (n t) (n c)) taps in
  let body =
    set_taps
    @ [ assign "kdiv" (n div);
        assign "y" (n 1);
        while_
          (v "y" <: v "height" -: n 1)
          [ assign "x" (n 1);
            while_
              (v "x" <: v "width" -: n 1)
              [ assign "acc" (n 0);
                assign "ky" (n 0);
                while_
                  (v "ky" <: n 3)
                  [ assign "kx" (n 0);
                    while_
                      (v "kx" <: n 3)
                      [ assign "pix"
                          (idx "image"
                             (((v "y" +: v "ky" -: n 1) *: v "width")
                             +: v "x" +: v "kx" -: n 1));
                        assign "acc"
                          (v "acc"
                          +: (v "pix" *: idx "kernel" ((v "ky" *: n 3) +: v "kx")));
                        assign "kx" (v "kx" +: n 1) ];
                    assign "ky" (v "ky" +: n 1) ];
                store "temp"
                  ((v "y" *: v "width") +: v "x")
                  (callv "clamp" [ v "acc" /: v "kdiv" ]);
                assign "x" (v "x" +: n 1) ];
            assign "y" (v "y" +: n 1) ];
        call "commit_temp" [] ]
  in
  func name []
    [ local "x"; local "y"; local "kx"; local "ky"; local "acc"; local "pix" ]
    body

let base_funcs =
  [ func ~ret:T_int "clamp" [ "value" ] []
      [ if_ (v "value" <: n 0) [ return (n 0) ] [];
        if_ (v "value" >: n 255) [ return (n 255) ] [];
        return (v "value") ];
    func ~ret:T_int "next_noise" [] []
      [ assign "noise_seed"
          (((v "noise_seed" *: n 1103515) +: n 12345) %: n 2147483);
        if_ (v "noise_seed" <: n 0)
          [ assign "noise_seed" (n 0 -: v "noise_seed") ]
          [];
        return (v "noise_seed") ];
    func "init_image" []
      [ local "p"; local "noise" ]
      [ assign "p" (n 0);
        while_
          (v "p" <: v "npixels")
          [ assign "noise" (callv "next_noise" []);
            store "image" (v "p")
              ((((v "p" *: n 7) %: n 151) +: (v "noise" %: n 105)) %: n 256);
            store "temp" (v "p") (n 0);
            store "output" (v "p") (n 0);
            assign "p" (v "p" +: n 1) ] ];
    func "commit_temp" [] [ local "p" ]
      [ assign "p" (v "width" +: n 1);
        while_
          (v "p" <: v "npixels" -: v "width" -: n 1)
          [ store "image" (v "p") (idx "temp" (v "p"));
            assign "p" (v "p" +: n 1) ] ];
    func "compute_histogram" [] [ local "p"; local "bucket" ]
      [ assign "bucket" (n 0);
        while_
          (v "bucket" <: v "nbuckets")
          [ store "histogram" (v "bucket") (n 0);
            assign "bucket" (v "bucket" +: n 1) ];
        assign "p" (n 0);
        while_
          (v "p" <: v "npixels")
          [ assign "bucket" (idx "image" (v "p") *: v "nbuckets" /: n 256);
            if_ (v "bucket" >=: v "nbuckets")
              [ assign "bucket" (v "nbuckets" -: n 1) ]
              [];
            store "histogram" (v "bucket") (idx "histogram" (v "bucket") +: n 1);
            assign "p" (v "p" +: n 1) ] ];
    func "find_range" [] [ local "p"; local "pix" ]
      [ assign "min_val" (n 255);
        assign "max_val" (n 0);
        assign "p" (n 0);
        while_
          (v "p" <: v "npixels")
          [ assign "pix" (idx "image" (v "p"));
            if_ (v "pix" <: v "min_val") [ assign "min_val" (v "pix") ] [];
            if_ (v "pix" >: v "max_val") [ assign "max_val" (v "pix") ] [];
            assign "p" (v "p" +: n 1) ] ];
    func "stretch_contrast" [] [ local "p"; local "range"; local "pix" ]
      [ call "find_range" [];
        assign "range" (v "max_val" -: v "min_val");
        if_ (v "range" ==: n 0) [ assign "range" (n 1) ] [];
        assign "p" (n 0);
        while_
          (v "p" <: v "npixels")
          [ assign "pix" (idx "image" (v "p"));
            store "image" (v "p")
              ((v "pix" -: v "min_val") *: n 255 /: v "range");
            assign "p" (v "p" +: n 1) ] ];
    func "apply_threshold" [] [ local "p" ]
      [ assign "p" (n 0);
        while_
          (v "p" <: v "npixels")
          [ if_
              (idx "image" (v "p") >=: v "threshold")
              [ store "output" (v "p") (n 255) ]
              [ store "output" (v "p") (n 0) ];
            assign "p" (v "p" +: n 1) ] ];
    func ~ret:T_int "checksum" [] [ local "p"; local "sum" ]
      [ assign "sum" (n 0);
        assign "p" (n 0);
        while_
          (v "p" <: v "npixels")
          [ assign "sum" ((v "sum" +: idx "output" (v "p")) %: n 65521);
            assign "p" (v "p" +: n 1) ];
        return (v "sum") ] ]

let image_program ?(width = 24) ?(height = 16) ?(n_filters = 15) () =
  let npixels = width * height in
  let globals =
    [ { v_name = "width"; v_typ = T_int; v_init = width };
      { v_name = "height"; v_typ = T_int; v_init = height };
      { v_name = "npixels"; v_typ = T_int; v_init = npixels };
      { v_name = "image"; v_typ = T_array npixels; v_init = 0 };
      { v_name = "temp"; v_typ = T_array npixels; v_init = 0 };
      { v_name = "output"; v_typ = T_array npixels; v_init = 0 };
      { v_name = "histogram"; v_typ = T_array 64; v_init = 0 };
      { v_name = "nbuckets"; v_typ = T_int; v_init = 64 };
      { v_name = "kernel"; v_typ = T_array 9; v_init = 0 };
      { v_name = "kdiv"; v_typ = T_int; v_init = 1 };
      { v_name = "threshold"; v_typ = T_int; v_init = 128 };
      { v_name = "noise_seed"; v_typ = T_int; v_init = 987654321 };
      { v_name = "min_val"; v_typ = T_int; v_init = 0 };
      { v_name = "max_val"; v_typ = T_int; v_init = 255 } ]
  in
  let filters = List.init n_filters filter_func in
  let main =
    func ~ret:T_int "main" [] [ local "pass"; local "sum" ]
      ([ call "init_image" []; call "compute_histogram" [] ]
      @ List.init n_filters (fun k -> call (Printf.sprintf "filter_%d" k) [])
      @ [ call "stretch_contrast" [];
          call "apply_threshold" [];
          assign "sum" (callv "checksum" []);
          return (v "sum") ])
  in
  Ast.number { globals; funcs = base_funcs @ filters @ [ main ] }

let small_program () =
  let globals =
    [ { v_name = "a"; v_typ = T_int; v_init = 3 };
      { v_name = "b"; v_typ = T_int; v_init = 0 };
      { v_name = "buf"; v_typ = T_array 8; v_init = 0 } ]
  in
  let double = func ~ret:T_int "double" [ "x" ] [] [ return (v "x" *: n 2) ] in
  let fill =
    func "fill" [] [ local "p" ]
      [ assign "p" (n 0);
        while_
          (v "p" <: n 8)
          [ store "buf" (v "p") (callv "double" [ v "p" ]);
            assign "p" (v "p" +: n 1) ] ]
  in
  let main =
    func ~ret:T_int "main" [] [ local "t" ]
      [ call "fill" [];
        assign "t" (idx "buf" (n 3));
        if_ (v "t" >: v "a")
          [ assign "b" (v "t" -: v "a") ]
          [ assign "b" (n (-1)); return_void ];
        assign "a" (v "a" +: v "b");
        return (v "b" +: idx "buf" (n 7)) ]
  in
  Ast.number { globals; funcs = [ double; fill; main ] }

(* ---- random annotation-free workloads ------------------------------------- *)

(* Deterministically random programs for property tests of the automatic
   checkpoint-inference pipeline: guaranteed to check, to terminate, and
   to keep every array index in bounds and every scalar non-negative
   (indices are built from non-negative literals, [+], [*] and [mod] by a
   positive literal — never [-] or [/]). The shapes vary where it
   matters: scalar/array mix, literal vs. affine vs. value-dependent
   (hashed) store indices, 1 or 2 top-level loops, optional setup calls
   and an optional early return. *)
let random_program ~seed () =
  let rng = Random.State.make [| 0x1c5; seed; 0xa11 |] in
  let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let n_scalars = int 2 4 in
  let n_arrays = int 1 3 in
  let scalars = List.init n_scalars (fun i -> Printf.sprintf "s%d" i) in
  let arrays =
    List.init n_arrays (fun i -> (Printf.sprintf "a%d" i, int 8 32))
  in
  let globals =
    List.map (fun s -> { v_name = s; v_typ = T_int; v_init = int 0 9 }) scalars
    @ List.map
        (fun (a, len) -> { v_name = a; v_typ = T_array len; v_init = 0 })
        arrays
  in
  (* A read of an array cell, in bounds: at the loop counter [i] (below
     8, the shortest array's length), at an affine index folded into the
     array by a positive-literal mod, or at a scalar's (scalars stay
     non-negative). *)
  let read () =
    let a, len = pick arrays in
    match int 0 2 with
    | 0 -> idx a (v "i")
    | 1 -> idx a (((v "i" *: n (int 1 5)) +: n (int 0 7)) %: n len)
    | _ -> idx a (v (pick scalars) %: n len)
  in
  (* A stored value, half the time with an array cell read into it. *)
  let value e = if int 0 1 = 0 then e else e +: read () in
  (* One store into a random array, indexed by the worker's loop counter
     [i] (always in [0, bound-1], bound <= 8). *)
  let store_stmt () =
    let a, len = pick arrays in
    let s = pick scalars in
    match int 0 2 with
    | 0 ->
        (* literal index *)
        [ store a (n (int 0 (len - 1))) (value (v "i" +: n (int 0 99))) ]
    | 1 ->
        (* affine index, folded into the array by a positive-literal mod *)
        let stride = int 1 5 and off = int 0 7 in
        [ store a
            (((v "i" *: n stride) +: n off) %: n len)
            (value (v s +: v "i")) ]
    | _ ->
        (* value-dependent (hashed) index: an LCG step keeps the scalar
           non-negative, then scatters a write through it *)
        let m = pick [ 251; 509; 1021; 4093 ] in
        [ assign s (((v s *: n (int 3 75)) +: n (int 1 74)) %: n m);
          store a (v s %: n len) (value (v s +: v "i")) ]
  in
  let n_workers = int 2 4 in
  let workers =
    List.init n_workers (fun w ->
        let bound = int 2 8 in
        let body = List.concat (List.init (int 1 3) (fun _ -> store_stmt ())) in
        func
          (Printf.sprintf "work%d" w)
          [] [ local "i" ]
          [ assign "i" (n 0);
            while_ (v "i" <: n bound) (body @ [ assign "i" (v "i" +: n 1) ]) ])
  in
  let worker_name w = w.f_name in
  let round_loop counter =
    let rounds = int 2 5 in
    let calls =
      List.init (int 1 2) (fun _ -> call (worker_name (pick workers)) [])
    in
    while_
      (v counter <: n rounds)
      (calls @ [ assign counter (v counter +: n 1) ])
  in
  let setup =
    if int 0 1 = 0 then [] else [ call (worker_name (pick workers)) [] ]
  in
  let loops =
    if int 0 2 = 0 then [ round_loop "r"; round_loop "q" ]
    else [ round_loop "r" ]
  in
  let early_return =
    (* A conditional top-level return: on seeds where the guard fires
       (it depends on the setup call's LCG steps) the driver's Halted
       path runs — later phases then take zero checkpoints. *)
    if int 0 3 = 0 then
      [ if_ (v (pick scalars) >: n (int 10 2000)) [ return (n 1) ] [] ]
    else []
  in
  let main =
    func ~ret:T_int "main" []
      [ local "r"; local "q" ]
      (setup @ early_return @ loops @ [ return (v (pick scalars)) ])
  in
  number { globals; funcs = workers @ [ main ] }
