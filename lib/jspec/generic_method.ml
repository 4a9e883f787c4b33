open Cklang

(* Variable conventions inside each method body:
   v0 = the receiver, v1 = loop index, v2 = let-bound child. *)
let o = Var 0
let i = Var 1

let program =
  { checkpoint =
      [ If
          ( Modified o,
            [ Write (Id_of o);
              Write (Kid_of o);
              Invoke_virtual (M_record, o);
              Reset_modified o ],
            [] );
        Invoke_virtual (M_fold, o) ];
    record =
      [ For (1, Const 0, N_ints o, [ Write (Int_field (o, i)) ]);
        For
          ( 1,
            Const 0,
            N_children o,
            [ Write
                (Cond (Is_null (Child (o, i)), Const (-1), Id_of (Child (o, i))))
            ] ) ];
    fold =
      [ For
          ( 1,
            Const 0,
            N_children o,
            [ If
                ( Not (Is_null (Child (o, i))),
                  [ Let (2, Child (o, i), [ Call (M_checkpoint, Var 2) ]) ],
                  [] ) ] ) ] }
