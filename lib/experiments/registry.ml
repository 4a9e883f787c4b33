type experiment = {
  name : string;
  title : string;
  run : scale:Workload.scale -> Format.formatter -> Workload.check list;
}

let all =
  [ { name = Table1.name; title = Table1.title; run = Table1.run };
    { name = Fig7.name; title = Fig7.title; run = Fig7.run };
    { name = Fig8.name; title = Fig8.title; run = Fig8.run };
    { name = Fig9.name; title = Fig9.title; run = Fig9.run };
    { name = Fig10.name; title = Fig10.title; run = Fig10.run };
    { name = Fig11.name; title = Fig11.title; run = Fig11.run };
    { name = Table2.name; title = Table2.title; run = Table2.run };
    { name = Ablation_guard.name;
      title = Ablation_guard.title;
      run = Ablation_guard.run };
    { name = Ablation_barrier.name;
      title = Ablation_barrier.title;
      run = Ablation_barrier.run };
    { name = Ablation_dedup.name;
      title = Ablation_dedup.title;
      run = Ablation_dedup.run };
    { name = Ablation_live.name;
      title = Ablation_live.title;
      run = Ablation_live.run };
    { name = Ablation_par.name;
      title = Ablation_par.title;
      run = Ablation_par.run };
    { name = Ablation_tenant.name;
      title = Ablation_tenant.title;
      run = Ablation_tenant.run } ]

let find name = List.find_opt (fun e -> e.name = name) all

let run_all ?names ~scale ppf =
  let selected =
    match names with
    | None -> all
    | Some names ->
        List.filter_map
          (fun n ->
            match find n with
            | Some e -> Some e
            | None ->
                Format.fprintf ppf "unknown experiment %S (skipped)@." n;
                None)
          names
  in
  List.map
    (fun e ->
      Format.fprintf ppf "@.### %s@.@." e.title;
      let checks = e.run ~scale ppf in
      Workload.pp_checks ppf checks;
      (e.name, checks))
    selected
