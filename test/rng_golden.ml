(* The first 32 outputs of each [Rng] stream in [Test_sim]'s golden test,
   per seed, computed with the boxed-[int64] splitmix64 state that the
   unboxed one replaced. Floats are their [Int64.bits_of_float]. *)

let streams : (string * int * int64 array) list =
  [ ( "bits64", 1,
      [| 0xbfef8030ddc2d772L; 0x5f552ce482f2aa47L; 0x70335fc3daf3d8a7L;
         0xf440fe3b62c79d2cL; 0x33ba2f29e7c168bbL; 0x98843f48a94b7866L;
         0x74ad4c24d41a25f8L; 0x2f9a1f13648eab6eL; 0x509a840d44beedbdL;
         0xe1d9d25350c18b44L; 0x83db02da19918686L; 0x889af42f2e548689L;
         0xec3add8a85bfa5eeL; 0x33ab0c5babe05527L; 0x27a774aeba5ef45bL;
         0x8bcb0ba992bb02deL; 0x1527c1fdc7b0c417L; 0x804bb522c13341d8L;
         0x80a93c8d8e2ceadcL; 0x79beee45e1ecc24cL; 0x2e369d1d3e96c682L;
         0x59c9fea5aa28fe9bL; 0xdd168d67c718ecd7L; 0xa926a41a727ed79dL;
         0x0ed4127b4d1b8ca4L; 0xeb7238222fd66ff6L; 0xcb1d1650c5ea8455L;
         0x3084dd451ea96f9fL; 0xb69da014429ca9c5L; 0x17c857e2b7ef4c42L;
         0x985f2e211bad6804L; 0x76f1cf18bbf9a387L |] );
    ( "int 7", 1,
      [| 4L; 2L; 6L; 2L; 3L; 4L; 5L; 5L; 4L; 0L; 3L; 1L; 3L; 5L; 0L; 3L; 5L;
         6L; 3L; 0L; 4L; 4L; 3L; 0L; 1L; 0L; 4L; 0L; 5L; 1L; 3L; 3L |] );
    ( "int 1000", 1,
      [| 347L; 763L; 757L; 572L; 647L; 286L; 979L; 845L; 707L; 422L; 753L;
         221L; 330L; 39L; 145L; 499L; 607L; 50L; 544L; 425L; 137L; 200L; 872L;
         441L; 925L; 988L; 725L; 941L; 835L; 917L; 166L; 493L |] );
    ( "int 2^20", 1,
      [| 186226L; 174663L; 252071L; 498988L; 92347L; 751718L; 665080L;
         961390L; 978365L; 101188L; 99974L; 296585L; 1025518L; 21799L;
         980059L; 721630L; 50199L; 213464L; 846556L; 836172L; 444034L;
         589467L; 584919L; 972701L; 756900L; 421878L; 689237L; 618399L;
         829893L; 1002562L; 878596L; 631687L |] );
    ( "int_in", 1,
      [| -4L; -2L; 12L; 7L; 10L; 7L; -2L; -2L; 12L; -1L; 6L; 12L; -3L; -4L;
         8L; -2L; -2L; -5L; -5L; 12L; -2L; 1L; 1L; 12L; 4L; 1L; 4L; -4L; 12L;
         -4L; -1L; 12L |] );
    ( "float", 1,
      [| 0x3ffdfd6c07a2a670L; 0x3fedca9e0768ebd4L; 0x3ff18806f69a361aL;
         0x40031513dca3b798L; 0x3fe02a2ebd186c70L; 0x3ff7d4a9e35a73cbL;
         0x3ff23b13e5c12415L; 0x3fddc0536c1ed929L; 0x3fe9304944257ba8L;
         0x4001a5046e824f1fL; 0x3ff49a387213febcL; 0x3ff55836275f3d34L;
         0x400274994ed272f8L; 0x3fe02573dca5b619L; 0x3fd8c8a8ed347b56L;
         0x3ff5d7b9d27eed38L; 0x3fca71b27d399cf0L; 0x3ff40bd44d6e3002L;
         0x3ff41a71761e3704L; 0x3ff305d53aeb4cfeL; 0x3fdce22232471e38L;
         0x3fec0f1f93c52cceL; 0x400145c30c1b8df2L; 0x3ffa6e09a421e3d0L;
         0x3fc289171a20626aL; 0x400264ec62abbcc0L; 0x3fffbc8b7c9eeca4L;
         0x3fde530a4b3329e1L; 0x3ffc88a1032a687aL; 0x3fcdba6ddb65eb1aL;
         0x3ff7cedf352c5318L; 0x3ff295c85bdd5f01L |] );
    ( "bool", 1,
      [| 0L; 1L; 1L; 0L; 1L; 0L; 0L; 0L; 1L; 0L; 0L; 1L; 0L; 1L; 1L; 0L; 1L;
         0L; 0L; 0L; 0L; 1L; 1L; 1L; 0L; 0L; 1L; 1L; 1L; 0L; 0L; 1L |] );
    ( "bernoulli", 1,
      [| 0L; 0L; 0L; 0L; 1L; 0L; 0L; 1L; 0L; 0L; 0L; 0L; 0L; 1L; 1L; 0L; 1L;
         0L; 0L; 0L; 1L; 0L; 0L; 0L; 1L; 0L; 0L; 1L; 0L; 1L; 0L; 0L |] );
    ( "exponential", 1,
      [| 0x402bb4ac7804ed3eL; 0x4012a23845823d5dL; 0x40171202666b33c0L;
         0x403ed109089ba508L; 0x40020ec6b132089cL; 0x40221d85cbbae180L;
         0x401855d50fbb395aL; 0x4000754ebb6962c9L; 0x400e4013b7893b02L;
         0x403563e4f414f904L; 0x401cf302445efce3L; 0x401e827bcb722942L;
         0x40399c2ece8ccaceL; 0x400208d968a7bfddL; 0x3ffaed8758ef9e3fL;
         0x401f979c0da370f4L; 0x3feb99d8da5a7a22L; 0x401bd1835b7b6ffdL;
         0x401beed9c035726dL; 0x4019d1550c8fe557L; 0x3fffda934555222cL;
         0x401146db659862beL; 0x4033ec6a3551a42aL; 0x40259ebfe996d662L;
         0x3fe3181099339110L; 0x403938a72e82f9f4L; 0x402f8a66e8e68808L;
         0x4000cf9ea5e73b9dL; 0x4028fd465fac0137L; 0x3fef337a96377100L;
         0x4022165d2170c0a0L; 0x4018fddeacb74dc4L |] );
    ( "gaussian", 1,
      [| 0xbff50aa4faaf5344L; 0x400879a195499955L; 0xbfbb96820b37f5b0L;
         0x3ffdd3709975d49eL; 0x4002467ff3dd3976L; 0xbff5a4d4fdd8537eL;
         0x4002cb1a81b231ecL; 0xbfbcb0d5fa377800L; 0x3fc5ad1894fa31b4L;
         0xbff55f7825027c50L; 0x3fd038ef2e0b81feL; 0xbff1f960cfce7af4L;
         0x3ff9ad6d809cbfceL; 0x400289f26a43ce56L; 0x400d1adb113d835dL;
         0xbff9fa5dea33aedaL; 0xbfe326c62c0dd9eaL; 0xbfeb4bd5f33513f6L;
         0xbfd251b96e1bad5cL; 0xbfe160c66c39a58aL; 0x40000aef567b6c5bL;
         0x3fb238d527029c60L; 0x3fa3f4da0f24f920L; 0x4006a3c4e87c58e8L;
         0x3fd21f99e92a8b88L; 0x3fd5ef12cff1f45cL; 0xbf3442743aa60000L;
         0xc003455f13992924L; 0x40145e551fc2f755L; 0x3fd1fe3c5243d0a2L;
         0x4006deee0a5541c2L; 0xbffdd93ce7d37ca8L |] );
    ( "lognormal", 1,
      [| 0x3fe4e61e2548faccL; 0x400e0f6096b05b7dL; 0x3ff0efcb4552f0b3L;
         0x4002a2ca821784e2L; 0x40060c3a09f22d2aL; 0x3fe496299860f50bL;
         0x4006a051209a3c18L; 0x3ff0e8543cc515e3L; 0x3ff2ec09fbba673fL;
         0x3fe4b9fb6eaea6d5L; 0x3ff391d312a65913L; 0x3fe6908a024bf0a5L;
         0x4000cccba7356b34L; 0x400657124e1403deL; 0x4012f1eafe99406cL;
         0x3fe278f93d8e71b5L; 0x3febd61ae0fc9f63L; 0x3fe9244ef5843b29L;
         0x3fef8a1c9238626eL; 0x3fec75d70279a511L; 0x4003b809716b896cL;
         0x3ff23184b38f702bL; 0x3ff1f5e8f9e29151L; 0x400b6c9bbcc10653L;
         0x3ff3cdb42ee092e4L; 0x3ff447e3a401f00aL; 0x3ff1ae386957e99eL;
         0x3fdafc8662fcd214L; 0x4020f20513fdf127L; 0x3ff3c9936746416eL;
         0x400bbe336083b0bfL; 0x3fe0c4d17233849cL |] );
    ( "pareto", 1,
      [| 0x40130868501bbc41L; 0x4001b121c7134bbdL; 0x400367b8748995f4L;
         0x40338f7aa63c4736L; 0x3ffcf7892d6cdeaeL; 0x400986bfbc30be5aL;
         0x4003ec5fbc225bc5L; 0x3ffc7d01becd9a79L; 0x400071e367cb4a56L;
         0x4021d59c2d98a9a4L; 0x4005eefb37409934L; 0x4006a88528f62bb6L;
         0x402959a65366a130L; 0x3ffcf5bf68c0cda0L; 0x3ffb9d0b29ff832eL;
         0x40072cd2b5b85852L; 0x3ff9c9dfada9bfb7L; 0x40056c3e2895710dL;
         0x4005795a1e3260a2L; 0x40048c59b6954a95L; 0x3ffc54c104210517L;
         0x400132e4a0479f4eL; 0x401f90a7af1a1156L; 0x400d8a3c8947ee29L;
         0x3ff9393a1a251cbfL; 0x40288ac2d22f2102L; 0x4016549a3ff9dfcdL;
         0x3ffc97db46b9b6a7L; 0x4010fefef39f4472L; 0x3ffa080f3b004e79L;
         0x40097f23a67fa810L; 0x40043299ad6578fbL |] );
    ( "split", 1,
      [| 0x55c55969ed403149L; 0x81fb535ca52e6825L; 0xa53ffa611d4be918L;
         0x16ba5b30692dd2a2L; 0xf01299dc05d70986L; 0xa389390354dbe8caL;
         0x49b288b6df2c88cfL; 0x2ede7ae59f4051e0L; 0x7010b62c1b16786bL;
         0x1402e4e5145ffe66L; 0x57c394c33369d41cL; 0xe12dcbdfe797ab5fL;
         0x14027c9d7bfb77a6L; 0xc2b1524cf41b8174L; 0x02919180e478bca5L;
         0x9b61ff5070ead4cbL; 0xd605059def66c2eeL; 0x9254aebdc3eb01deL;
         0x57ba030aad89e5cfL; 0xb6a9b987e87004c6L; 0x5a190643efb123a1L;
         0xae97489d77019ea4L; 0xa2499e37dc5fbec5L; 0xc460ffd308b30977L;
         0xb88c7c1f9e1e21c6L; 0x88431e91a59fed0bL; 0xc50de26baecbac57L;
         0xdc064f33dd8722caL; 0xb4b3ea628d1fab34L; 0xbf916b774ef8a22aL;
         0xf807dabbde4b0253L; 0x078e40a8fc54fbe7L |] );
    ( "copy", 1,
      [| 0xbfef8030ddc2d772L; 0x5f552ce482f2aa47L; 0x70335fc3daf3d8a7L;
         0xf440fe3b62c79d2cL; 0x33ba2f29e7c168bbL; 0x98843f48a94b7866L;
         0x74ad4c24d41a25f8L; 0x2f9a1f13648eab6eL; 0x509a840d44beedbdL;
         0xe1d9d25350c18b44L; 0x83db02da19918686L; 0x889af42f2e548689L;
         0xec3add8a85bfa5eeL; 0x33ab0c5babe05527L; 0x27a774aeba5ef45bL;
         0x8bcb0ba992bb02deL; 0x1527c1fdc7b0c417L; 0x804bb522c13341d8L;
         0x80a93c8d8e2ceadcL; 0x79beee45e1ecc24cL; 0x2e369d1d3e96c682L;
         0x59c9fea5aa28fe9bL; 0xdd168d67c718ecd7L; 0xa926a41a727ed79dL;
         0x0ed4127b4d1b8ca4L; 0xeb7238222fd66ff6L; 0xcb1d1650c5ea8455L;
         0x3084dd451ea96f9fL; 0xb69da014429ca9c5L; 0x17c857e2b7ef4c42L;
         0x985f2e211bad6804L; 0x76f1cf18bbf9a387L |] );
    ( "bits64", 42,
      [| 0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L;
         0x0c4b6b24ef01890eL; 0xfb16a06e52ec10a7L; 0x3c30fc5fd50692c3L;
         0x4782c4b4c4fdf7c9L; 0x272404a0a3926552L; 0xc2bc249e28760ccdL;
         0x3e69c285108dbb77L; 0xc3b2b51fc61ec914L; 0xe2df09f8ccf26f14L;
         0xe664fb166d3dc14cL; 0x1494766cf71b64b6L; 0x09b78fbf46485568L;
         0xda9e8d784db0c8f7L; 0x1158ab517a8ca0d3L; 0x394f8bb12fc92c37L;
         0x1633bb32a8a81b0aL; 0xaa1d5be576d44e89L; 0x56f1a2422b95b9b3L;
         0x3af1eb79c66a559fL; 0x8e040e54f7592ee8L; 0x6d94a674c34b9739L;
         0x771b665074d680e9L; 0xf3e574517c5eedb8L; 0x1d23fbdef237f1ccL;
         0xa4b67120e03c4d22L; 0xf39c32800a3a496aL; 0x051953672e4acbbcL;
         0x11d94b400fa88703L; 0x92c6c2e1375c96acL |] );
    ( "int 7", 42,
      [| 2L; 0L; 5L; 6L; 0L; 5L; 4L; 4L; 1L; 1L; 6L; 6L; 5L; 2L; 6L; 6L; 1L;
         2L; 1L; 0L; 0L; 2L; 4L; 4L; 3L; 1L; 3L; 6L; 3L; 4L; 6L; 5L |] );
    ( "int 1000", 42,
      [| 595L; 570L; 183L; 57L; 244L; 993L; 923L; 475L; 276L; 937L; 819L;
         109L; 265L; 31L; 148L; 844L; 622L; 366L; 129L; 20L; 423L; 235L; 944L;
         5L; 555L; 787L; 151L; 654L; 214L; 260L; 331L; 82L |] );
    ( "int 2^20", 42,
      [| 407657L; 57047L; 111317L; 100622L; 790695L; 430787L; 915401L;
         157010L; 396493L; 899959L; 968980L; 159508L; 901452L; 746678L;
         546152L; 51447L; 827603L; 601143L; 531210L; 282249L; 375219L;
         677279L; 601832L; 759609L; 426217L; 978360L; 520652L; 806178L;
         674154L; 707516L; 558851L; 825004L |] );
    ( "int_in", 42,
      [| -4L; 1L; -2L; 4L; -5L; -4L; 8L; -4L; 11L; -4L; 4L; 2L; 4L; 8L; -1L;
         3L; 9L; 9L; 4L; 1L; 10L; 10L; -3L; -2L; 2L; 10L; 6L; 11L; -5L; -1L;
         -2L; 11L |] );
    ( "float", 42,
      [| 0x3ff7d841daf990f9L; 0x3fd9a890f7776687L; 0x3fda9fa76fe4410eL;
         0x3fbebc8bdc5583d4L; 0x40039dc4889e7a71L; 0x3fe2cf4eddf2920dL;
         0x3fe658dd787d8f5bL; 0x3fd87682e4663b7cL; 0x3ffe6d65b8b65271L;
         0x3fe3810cc9952c4aL; 0x3ffe93ec4cf6f4cfL; 0x4001b96cc77002f0L;
         0x4001ffe39dc088d3L; 0x3fc9b9940834e238L; 0x3fb84ae75e2fb4c8L;
         0x400114630d6611d0L; 0x3fc5aed625d92fc8L; 0x3fe1e8dba75eeedcL;
         0x3fcbc0a9ff52d21eL; 0x3ffa94965bda912bL; 0x3feb2b82b4ad9ecaL;
         0x3fe26b99960e0139L; 0x3ff630a23d46a5eeL; 0x3ff11f3a023e83ceL;
         0x3ff29c47fc924184L; 0x40030ded165db76aL; 0x3fd2367d6b5762f6L;
         0x3ff9bc81ad23096bL; 0x40030833f200cc8eL; 0x3fa97ea103e775e8L;
         0x3fc64f9e101392a0L; 0x3ff6ef0e7330a676L |] );
    ( "bool", 42,
      [| 1L; 1L; 1L; 0L; 1L; 1L; 1L; 0L; 1L; 1L; 0L; 0L; 0L; 0L; 0L; 1L; 1L;
         1L; 0L; 1L; 1L; 1L; 0L; 1L; 1L; 0L; 0L; 0L; 0L; 0L; 1L; 0L |] );
    ( "bernoulli", 42,
      [| 0L; 1L; 1L; 1L; 0L; 1L; 1L; 1L; 0L; 1L; 0L; 0L; 0L; 1L; 1L; 0L; 1L;
         1L; 1L; 0L; 0L; 1L; 0L; 0L; 0L; 0L; 1L; 0L; 0L; 1L; 1L; 0L |] );
    ( "exponential", 42,
      [| 0x402221f835b304abL; 0x3ffbf755ea7760e2L; 0x3ffd1ead8eb7cc55L;
         0x3fdf7fc4e32d682aL; 0x4043c4935e7347b0L; 0x4005717327e5bfddL;
         0x400a34f935448eb8L; 0x3ffa8c7030cfc52aL; 0x402c996f3144053dL;
         0x40065b2863e1965dL; 0x402cea9096e7f469L; 0x4035bc094525de14L;
         0x4037061043543dc0L; 0x3fead163437719c8L; 0x3fd8c4010d226610L;
         0x40333d8077b01d51L; 0x3fe673d9355f56e7L; 0x4004465aba3ca46fL;
         0x3fed07cdfbd1836dL; 0x4025d7e1f0f39672L; 0x4010990df228bb46L;
         0x4004ef81315f95a0L; 0x40202eaf203af171L; 0x4016591dd1c39068L;
         0x40190a03efedea52L; 0x403e844453de5126L; 0x3ff355e2e797bd30L;
         0x40249f9113271c13L; 0x403e48725be7f08aL; 0x3fc9c080b9351bfbL;
         0x3fe7207f57e7b055L; 0x4021091d977b4d27L |] );
    ( "gaussian", 42,
      [| 0x400380b220848b92L; 0x4001378ceea7b898L; 0x3ff866323e9d8f7fL;
         0x3ffed75802ee5eacL; 0x3ff21b6ff7aca320L; 0x400c8bad6d53ad53L;
         0x401305edad63d08eL; 0x3ff56940781c0608L; 0x3ff1f59116d757dfL;
         0x3fe20cfd98058b49L; 0x3ff39b85c2b149dcL; 0xbff49e26406649deL;
         0x40091e4decdf2fe5L; 0x3fd8ef9953981418L; 0x401788be49490e91L;
         0x3fd4699f5ddf9068L; 0x3fb9cad653401bc0L; 0x40069ce80dd04dd3L;
         0xbfe8fb63b3a88cb2L; 0x3fdd797b01cd1c60L; 0x3ffefd9964a96391L;
         0xbfd356470cc99b90L; 0x3ffd1beeac6185b1L; 0xbfe842019ceba04aL;
         0x3fdddeaa6cf63b50L; 0x400fce447dda3bbdL; 0x3fbb9fcd13125620L;
         0x3ff330a64f464185L; 0x400edef603d78985L; 0x40107201f012147dL;
         0x3fc7d1cacf0f0094L; 0x40180b1a88d57e74L |] );
    ( "lognormal", 42,
      [| 0x40077170e57988b3L; 0x4004e94d1b7b0a2aL; 0x40004587fe142fcfL;
         0x40031d6defc5e0f9L; 0x3ffbce73c57f2b87L; 0x40126c2bd20fcf4fL;
         0x401d9fef99def1b5L; 0x3ffe336544b78df4L; 0x3ffbb42cb6bd19b8L;
         0x3ff6289627c916e6L; 0x3ffcde8621790973L; 0x3fe51f1ad2eddd37L;
         0x400f0ae7a8bef792L; 0x3ff4aa392f287f8bL; 0x4027418841ebf18eL;
         0x3ff416c21d900a4bL; 0x3ff268f00687c970L; 0x400b6334549eefcfL;
         0x3fe9e137aa150fdcL; 0x3ff5426f915bb97fL; 0x40032fbeb111dce7L;
         0x3fef56e9f44cf354L; 0x40024e0e8def6aa1L; 0x3fea1d75e7fea965L;
         0x3ff54fe5a928a908L; 0x4015af239e77ff2fL; 0x3ff2767267f8f405L;
         0x3ffc91caa820d245L; 0x4014b1a6c433145cL; 0x4016e497b7f6f2d4L;
         0x3ff30c97d14a73d8L; 0x4028788cb8d36cdcL |] );
    ( "pareto", 42,
      [| 0x40098b7afd1d69e4L; 0x3ffbc36022a2a7fdL; 0x3ffbee35e82de441L;
         0x3ff9013b59ac4186L; 0x404439d405f2d2faL; 0x3ffe01b5f62bed3aL;
         0x3fff88834f42257cL; 0x3ffb8f1805aa4a40L; 0x4013c13e08eaf001L;
         0x3ffe4b1bf699280fL; 0x4014047716b0dfadL; 0x40225a810597b497L;
         0x40246f6109de2957L; 0x3ff9bc6cd121c6e2L; 0x3ff8c95aad58fc1dL;
         0x401dd169cc054028L; 0x3ff971f35f30d195L; 0x3ffda4ca0b1ce850L;
         0x3ff9e27f15be2e8eL; 0x400dd0e2b1512a06L; 0x4000f50e77631740L;
         0x3ffdd9337937dafcL; 0x40078d1383c02fb5L; 0x40031d885bea1e55L;
         0x400437b6a7593b5bL; 0x403313e4ee854228L; 0x3ffa8af6aec87d5fL;
         0x400c569508468763L; 0x4032b5b627937901L; 0x3ff867e04e71bf40L;
         0x3ff97d66a92fbf9eL; 0x400867471990f4f0L |] );
    ( "split", 42,
      [| 0x5599b3e06d073327L; 0x66723b876cf5a31dL; 0x5155125769ef480fL;
         0xf72aa72b5007beffL; 0xa49b06bc98708893L; 0x84e390f99b9080c3L;
         0xa42dcfdd2f9a2b74L; 0xd0232beea63ec39eL; 0x862456b19360fa06L;
         0xe15b1bcf0108f8dbL; 0x7add3570dfb8273aL; 0xfae1bb6ce689366bL;
         0xf6ee19f86453dfb2L; 0x6ddee8bdc457d6a9L; 0xcf6ebea17fd1c64dL;
         0xc3f2aa18b7a14e3eL; 0xc66c58d68a883c8cL; 0xb631327c1b5a0f36L;
         0xe35e0451603430b7L; 0x42a64b87bded0042L; 0xc50e0fa3585e8161L;
         0x956502ee129382cbL; 0xd361eb28d3844f54L; 0xd6855ce77c949487L;
         0x90cab40a169c7414L; 0x5c3a2cf038f16c04L; 0x694a2f8f405c9216L;
         0x281bcb1f0cd0aacfL; 0xed00ba1e6a23d764L; 0xb7f4496be75fb605L;
         0x3511980cd001fe1bL; 0x33137d4e73f89989L |] );
    ( "copy", 42,
      [| 0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L;
         0x0c4b6b24ef01890eL; 0xfb16a06e52ec10a7L; 0x3c30fc5fd50692c3L;
         0x4782c4b4c4fdf7c9L; 0x272404a0a3926552L; 0xc2bc249e28760ccdL;
         0x3e69c285108dbb77L; 0xc3b2b51fc61ec914L; 0xe2df09f8ccf26f14L;
         0xe664fb166d3dc14cL; 0x1494766cf71b64b6L; 0x09b78fbf46485568L;
         0xda9e8d784db0c8f7L; 0x1158ab517a8ca0d3L; 0x394f8bb12fc92c37L;
         0x1633bb32a8a81b0aL; 0xaa1d5be576d44e89L; 0x56f1a2422b95b9b3L;
         0x3af1eb79c66a559fL; 0x8e040e54f7592ee8L; 0x6d94a674c34b9739L;
         0x771b665074d680e9L; 0xf3e574517c5eedb8L; 0x1d23fbdef237f1ccL;
         0xa4b67120e03c4d22L; 0xf39c32800a3a496aL; 0x051953672e4acbbcL;
         0x11d94b400fa88703L; 0x92c6c2e1375c96acL |] ) ]
