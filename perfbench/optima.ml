(* The proven optimum of every PaQL catalog query on its workload's
   fixed table (both are generated from fixed seeds), computed once with
   whole-relation ILP and no budgets by `pbbench --print-optima`, which
   prints [table]. Keyed by the MD5 of the query text; [None] means no
   valid package exists. Regenerate it when the catalogs or the data
   generator change. *)

let key text = Digest.to_hex (Digest.string text)

let table : (string * float option) list = [
  ("97085da94eecd6898712b7ccce20d41d", Some (0x1.01eb851eb851ep+4));
  ("13dcc0f86d276f817f1348b7cfe4c13e", Some (0x1.01eb851eb851ep+4));
  ("e505bbf61646882dd3d9b091cf0c1ff8", Some (0x1.10f5c28f5c29p+3));
  ("7dafe698f3aa4ca6eff0478e090efb55", Some (0x1.499999999999ap+3));
  ("1cb6abd3a7287758819eb9171ab57379", Some (0x1.2051eb851eb85p+3));
  ("846c1b2e7721eeba503a3bc19abd17b7", Some (0x1.3333333333334p+3));
  ("b2eba1e9e126c6d6ef573fd1b80addaf", Some (0x1.67p+8));
  ("e8b158e5e5df703a90f3b4898f0cad79", Some (0x1.67p+8));
  ("80a9a9377d71f8338219c18fb43730c5", Some (0x1.67p+8));
  ("27d3657b7d239ad642f557f55f93bb25", Some (0x1.d4p+8));
  ("4a407bb977de77217110b73ba6921594", Some (0x1.dap+8));
  ("1869712c02bae0563bf59ea60a93ee7c", Some (0x1.dap+8));
  ("fa0c8687561ec27e777c6a3beb9569c4", Some (0x1.dbp+8));
  ("bee7bd91f374a23b4b0b90e789b2d7d0", Some (0x1.dbp+8));
  ("34c4d33163c0531a6f3ba880d65dd96d", Some (0x1.ddp+8));
  ("d40b5ce430bce12eb3ebaeb0bececaf3", Some (0x1.a5c28f5c28f5cp+3));
  ("071a38717862cfc24242a80f4838e503", Some (0x1.8a8f5c28f5c2ap+3));
  ("9b283c0e3eef527abf746e7b48924360", Some (0x1.8a8f5c28f5c2ap+3));
  ("414c72b5713bdb8395c9b6f5fbe595ff", Some (0x1.dfp+8));
  ("769cb4f2b3f06f3fc1886a3d86de2dc8", Some (0x1.dfp+8));
  ("e555b689a507ac6c6550607ec3be3619", Some (0x1.288p+9));
  ("32f1692c3a6531fcb6fc502eb37366a1", Some (0x1.298p+9));
  ("007859ef6587b8f26d10944fbb709d33", Some (0x1.298p+9));
  ("38fb01503b7ffbe84688d3b34a436788", Some (0x1.f147ae147ae14p+3));
  ("6ae20274de74a74d09a0b7b730196b18", Some (0x1.f147ae147ae14p+3));
  ("03810cbf4eb8e8df95cc21c9febc9e77", Some (0x1.f147ae147ae14p+3));
  ("3b32774accd14c5426b6ccc2ba2b155b", Some (0x1.12e147ae147aep+4));
  ("192498d741f0ca0e79ee9171fb9869b0", Some (0x1.e2e147ae147aep+4));
  ("635631e999661d08f208bcd54d56b89b", Some (0x1.12e147ae147aep+4));
  ("61880bf37551dcabe2deb82245d77553", Some (0x1.9e3d70a3d70a4p+4));
  ("642ab89329b7098b0a601a064fd88ae7", Some (0x1.9e3d70a3d70a4p+4));
  ("6936337ddba48cf6cc5c713f76141d89", Some (0x1.9e3d70a3d70a4p+4));
  ("415b375edca9101edc57a88ec3b14fef", Some (0x1.2b8p+9));
  ("68251f2f4e689b66be4071be16d7c7d4", Some (0x1.2bp+9));
  ("89d6ed30414126fb4eb655334291b21c", Some (0x1.2b8p+9));
  ("d7305e3d327c0b87c005cc360be5f0fb", Some (0x1.3570a3d70a3d7p+3));
  ("01699eb3b96ba4534be911a13beb8efd", Some (0x1.3570a3d70a3d7p+3));
  ("4d6a0d66295c9867be4d0b82503bc768", Some (0x1.3570a3d70a3d7p+3));
  ("0565fb8129aa9c5bc737d2853b9f526f", Some (0x1.af5c28f5c28f6p+3));
  ("d33b0446e77daf8cdc473e942a883594", Some (0x1.af5c28f5c28f6p+3));
  ("99a028301a715197f6a62fdce08f5833", Some (0x1.af5c28f5c28f6p+3));
  ("ccf2869e2f49bc3e50756d08642b93fc", Some (0x1.dap+8));
  ("74c68604ecb6eadc1c76ab8edc5c8ca2", Some (0x1.dcp+8));
  ("94b6ad4fee7402eb8acb232f67e7defa", Some (0x1.dbp+8));
  ("e0ef2f4b57be6f36e7310029794a98bd", Some (0x1.65p+8));
  ("28f2e9af155a6f250cd6c202ef627e5f", Some (0x1.66p+8));
  ("250ea19686566fe735de8c4f97741a8c", Some (0x1.66p+8));
  ("ef17bada1d15214247a8129bd90f0300", Some (0x1.4c28f5c28f5c2p+4));
  ("b9f86826f190e155f056afda29939c9b", Some (0x1.47ae147ae147bp+4));
  ("f1f19ec16828e5e05f2824cbbf5763a4", Some (0x1.2bp+9));
  ("7fd2c477a9ef3533d524c01abcd17068", Some (0x1.2bp+9));
  ("dfefcf806d33c4911e474c6d195b3ce9", Some (0x1.2bp+9));
  ("e876377fc68b29e50a22b741a7d44c9c", Some (0x1.2b8p+9));
  ("db707530b0c5485e104ffd5d9cbb02d8", Some (0x1.2b8p+9));
  ("a31d870dd9edae906d2cf8e9f199eccb", Some (0x1.dap+8));
  ("ffbd1918f2c83d623125a5a71fea9d26", Some (0x1.dap+8));
  ("a2c190e5e982443ae7e7a8268c0a075e", Some (0x1.dap+8));
  ("b83a9bde45e2253f78871c67a3431d1e", Some (0x1.dcp+8));
  ("8c09e16b316eddd7a5f0974f006e7d20", Some (0x1.dcp+8));
  ("45b09ddfb80f48cb04db0e8bdfe169ae", Some (0x1.dcp+8));
  ("c42c3003e09ed1523d6db62b6f610b57", Some (0x1.5ep+8));
  ("e8402903de596a93b5a7941f38556fa8", Some (0x1.5ep+8));
  ("bc20cd166ddec4ac61de84c7e51aa75f", Some (0x1.64p+8));
  ("b29ae2a7699c20ef82e8883f326e4390", Some (0x1.36b851eb851ecp+4));
  ("7c90eb0bc80f5ca83f8b680e4dee3fd2", Some (0x1.9a3d70a3d70a4p+3));
  ("568eefe069e54f685466c12116acea84", Some (0x1.dep+8));
  ("24157a86331d244815f66752b3216c2c", Some (0x1.dep+8));
  ("4fc8104cbac73080a48fea4d5c94088e", Some (0x1.dfp+8));
  ("b16c6dca466b0dbc81102b799b22dbfe", Some (0x1.da8f5c28f5c29p+3));
  ("4515cf81f08e7c17cba4b26ba513202f", Some (0x1.da8f5c28f5c29p+3));
  ("761aed01204ba43721b534fe5d4474e2", Some (0x1.da8f5c28f5c29p+3));
  ("33ab9e987db5c1fd1e30acfd5c00c11b", Some (0x1.66p+8));
  ("4c00947de02e393b5790edb353b5c95c", Some (0x1.66p+8));
  ("8eb0470577e5aafd8cd3c0cfed2a2725", Some (0x1.66p+8));
  ("f0d55919edfe0c1457015f384a821afc", Some (0x1.67p+8));
  ("9ec2c59c0695c810a49ec848ae31c1e4", Some (0x1.67p+8));
  ("7c595747f59fb04ece27862f421b33e9", Some (0x1.67p+8));
  ("80adfdf42e87652db0f3e820cab76924", Some (0x1.64p+8));
  ("1b8eaf08322faa60f64b8035f536ca08", Some (0x1.64p+8));
  ("bd8dab5f18a662eb83a2c7954e6923c0", Some (0x1.64p+8));
  ("89ce11dc78af9202e7b43989331ff97f", Some (0x1.10f5c28f5c29p+3));
  ("8cef294695b14c5392c6262b06cba462", Some (0x1.3c28f5c28f5c2p+3));
  ("900c518020ce6f331bbcb1683900e77b", Some (0x1.10f5c28f5c29p+3));
  ("c814d7d1f1f1c69b3dcf7f08e42ad862", Some (0x1.2ap+9));
  ("733c6e5571f09ec6e4be749667f3a6ae", Some (0x1.2ap+9));
  ("fe4544ba2fe07bc3a086a6dac22f5d8a", Some (0x1.2ap+9));
  ("0bd853b46f3cbe5bbeb7f3d4307c2a7c", Some (0x1.5ep+8));
  ("a110d943bdde9a73757993c0bbb78b98", Some (0x1.5ep+8));
  ("dffc826ba3eeb1c9ed1089281f6f6e94", Some (0x1.5ep+8));
  ("af5d959eef17985ce85a4244c5193f8f", Some (0x1.52p+8));
  ("142d811d87f8cbb1d76a2c3bb82953e3", Some (0x1.5ep+8));
  ("3cc7d559afeaae9ab2642cd36dc41622", Some (0x1.5ep+8));
  ("30a8cab73661d9cd6977bf6714e4d512", Some (0x1.44ccccccccccdp+3));
  ("ec2ad0a22e5e1033fec625ad8d5ab181", Some (0x1.e47ae147ae148p+3));
  ("62c211441e6434eb22ce498bd46f0037", Some (0x1.f8a3d70a3d70ap+3));
  ("e5b50e76463aaedd6b794eb1dbccd232", Some (0x1.45c28f5c28f5cp+3));
  ("3d43605aaed904fb4f8182e08f2e16bd", Some (0x1.a7ae147ae147ap+3));
  ("2e19727fb0753677789d6dbcc74cae05", Some (0x1.5570a3d70a3d8p+3));
  ("cdaeff8bee373e07bfbd98ce52cdef7b", Some (0x1.5fp+8));
  ("a53a72606b64ff7d581e75e69ba9ce5f", Some (0x1.5fp+8));
  ("aa122165eaf9c9dc2a3c4309f9b04d69", Some (0x1.5fp+8));
  ("a5d45359c122b3154ce309b5877694f9", Some (0x1.b6p+8));
  ("beb219d4d93de9ba3709dac3a6a9ca52", Some (0x1.b6p+8));
  ("1debd0afae0fee0f94c8bfcb556340d5", Some (0x1.b6p+8));
  ("7f4158d6a122f7c058dca8b41a534a44", Some (0x1.a2p+8));
  ("b3e7303f7657c6cf5a534edef2387f4a", Some (0x1.a4p+8));
  ("046f023489058c881a766aa3dd1de021", Some (0x1.b9p+8));
  ("bfa88f38a233db532ce065e7b452b400", Some (0x1.dbp+8));
  ("1a59a5519c2a6c94dd76da628d974cc8", Some (0x1.dbp+8));
  ("a7beeba9cd9f005e7adaeb0c93601064", Some (0x1.dbp+8));
  ("ecd6255a5a62f3e03b711839353ea001", Some (0x1.dbp+8));
  ("65b5783e6adbf4ec775eba2fe295ccaf", Some (0x1.dbp+8));
  ("6448d12412097b56d1a0502c9a261608", Some (0x1.dbp+8));
  ("d51fc8621dfbd8282b7f4d704987bb61", Some (0x1.18p+9));
  ("0e5a583d42970c82a7730f2b4f108e4f", Some (0x1.19p+9));
  ("3f32c04d684a63d15810ebdfcd62faec", Some (0x1.218p+9));
  ("a7dd7fe05f9a3ff31110cba02e5e0164", Some (0x1.ep+7));
  ("aa1328fe72153653490ca63ffdd95459", Some (0x1.ep+7));
  ("24078a452ed8b9803f8b55a7f37f2590", Some (0x1.ep+7));
  ("a1e9cf4ee5df413ff678c9c6d0d8da75", Some (0x1.ep+7));
  ("a946d35def61c02b54053dc62bcfd795", Some (0x1.ep+7));
  ("b1fdc438ef358a1e0dad8193179c19dc", Some (0x1.ep+7));
  ("13586d5c377686bdce8f767e414ec67f", Some (0x1.ep+7));
  ("d62933b257ac0edb0d07086bc01ad505", Some (0x1.ep+7));
  ("cd182653275daf466921205fdc9452a9", Some (0x1.ep+7));
  ("d13536a2c596f23368baea9ca5614210", Some (0x1.ep+7));
  ("93e391dd692db2b66ce13ca348790f52", Some (0x1.ep+7));
  ("bf0081fb8e10e7d8165dd72e171b7d8b", Some (0x1.ep+7));
  ("dc949d7a677cdd23eee970c86cc648fc", Some (0x0p+0));
  ("b791f692b2f9e102327e647a7519f424", Some (0x0p+0));
  ("fa1536180117ec85b14627c2ed0c8dab", Some (0x1.2cp+8));
  ("333cf9646d1128bc8c0eabd0775ea5b6", Some (0x1.2cp+8));
  ("cc96abba12e858f3aee53773f3bf952c", Some (0x1.2cp+8));
  ("132c5eed3619bf1620aee9ac1f72cc54", Some (0x0p+0));
  ("8aae557e317caaae555db87a4374f101", Some (0x0p+0));
  ("85e4e10017d2e0231d7d8f066aa90a67", Some (0x0p+0));
  ("0ad33838fb3c965c1869dda8afd1acb5", Some (0x0p+0));
  ("5c4586e131daa06a9266236aabee707f", Some (0x1.2cp+8));
  ("fb97dbc88f346cf147e7685fb20f9481", Some (0x1.2cp+8));
  ("ec0fa27be0a56ae8f22e97ac1d88ce60", Some (0x1.2cp+8));
  ("69ad72936856c2bc93cc1b8701835844", Some (0x0p+0));
  ("05e1bfbce45d274581b6a7aedf24da6c", Some (0x0p+0));
  ("3b4719ee8cdf44ba6d612c6d4aa8f3d8", Some (0x0p+0));
  ("f804fb7c2b61b69770d4b31ea4d1616e", Some (0x0p+0));
  ("52151d26c164b5cced923593913ba9cd", Some (0x0p+0));
  ("01e842833f68bc1151c00c61450e8d98", Some (0x0p+0));
  ("4c47828fc14dd71a6f007701c36b264b", Some (0x0p+0));
  ("88916b3776349123776b6aa37798cc7a", Some (0x0p+0));
  ("1e00e28cced24072f42fd7828f42ebfc", Some (0x0p+0));
  ("06b7d1e64019663b557c2f199be21a4e", Some (0x0p+0));
  ("f771f810a74cf1a732636e0167971df9", Some (0x0p+0));
]

let find text =
  match List.assoc_opt (key text) table with
  | Some v -> v
  | None -> failwith ("no reference optimum for " ^ text)

let source entries =
  let b = Buffer.create 4096 in
  Buffer.add_string b "let table : (string * float option) list = [\n";
  List.iter
    (fun (text, v) ->
      Printf.bprintf b "  (%S, %s);\n" (key text)
        (match v with Some x -> Printf.sprintf "Some (%h)" x | None -> "None"))
    entries;
  Buffer.add_string b "]\n";
  Buffer.contents b
