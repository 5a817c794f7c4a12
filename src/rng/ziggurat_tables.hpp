#ifndef SOPS_RNG_ZIGGURAT_TABLES_HPP
#define SOPS_RNG_ZIGGURAT_TABLES_HPP

/// \file ziggurat_tables.hpp
/// Tables of the 256-layer exponential ziggurat (Marsaglia & Tsang, "The
/// Ziggurat Method for Generating Random Variables", J. Stat. Softw. 5(8),
/// 2000) behind rng::drawStandardExponential.
///
/// The density e^{-x} is covered by 256 layers of equal area
/// v = (r + 1)·e^{-r}: layer 0 is the base strip [0, x_0) × [0, e^{-r}),
/// whose part beyond r stands for the tail, and layer i ≥ 1 is the
/// rectangle [0, x_i) × [e^{-x_i}, e^{-x_{i+1}}).  The right edges follow
/// the recurrence
///
///     x_0 = v·e^{r},  x_1 = r,  x_{i+1} = −log(e^{-x_i} + v / x_i),
///
/// and r = 7.6971174701310497140… is the root at which it closes with
/// x_256 = 0.  kExponentialZigguratX holds x_0 … x_256 and
/// kExponentialZigguratF holds e^{-x_i}, each rounded to nearest from a
/// 300-bit evaluation of the recurrence.  They are literals (the doubles
/// in hex-float), and the fast-path bounds are computed from X in exact
/// integer arithmetic, so the tables — and every draw that takes the fast
/// path — are the same bits on every platform, whatever its libm.
/// tests/rng_test.cpp recomputes X and F from the recurrence and checks
/// each bound exactly against X.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace sops::rng {

inline constexpr std::size_t kZigguratLayers = 256;

inline constexpr std::array<double, kZigguratLayers + 1>
    kExponentialZigguratX = {
        0x1.164ec94bf5dc1p+3, 0x1.ec9d9297ebb83p+2, 0x1.bc39e51da71fcp+2,
        0x1.9e9dc0d487b85p+2, 0x1.8939fe6f2ed19p+2, 0x1.78750d6eac62fp+2,
        0x1.6aa676d4bbf72p+2, 0x1.5ee7ae17313d2p+2, 0x1.54ad83ccf73f6p+2,
        0x1.4b9d7cd4751d1p+2, 0x1.4379766e41362p+2, 0x1.3c14ec7c8b861p+2,
        0x1.354ee27ccf75ep+2, 0x1.2f0e38a4411f0p+2, 0x1.293f5ae49aaa5p+2,
        0x1.23d2bb659919fp+2, 0x1.1ebbca0c9fa7cp+2, 0x1.19f03bcb3c2d6p+2,
        0x1.156786775442ap+2, 0x1.111a8034392a6p+2, 0x1.0d031785d48a0p+2,
        0x1.091c1cdcba54ep+2, 0x1.056118bf58eefp+2, 0x1.01ce2b362ec2ep+2,
        0x1.fcbfe43f6c6e5p+1, 0x1.f626e9791f7a7p+1, 0x1.efcc26750ea4ap+1,
        0x1.e9aaf2af383c1p+1, 0x1.e3bf26e190960p+1, 0x1.de050af4ef19fp+1,
        0x1.d87946fec3becp+1, 0x1.d318d6b2738c5p+1, 0x1.cde0fecf2a97fp+1,
        0x1.c8cf442c8c8f4p+1, 0x1.c3e1641c2e0a7p+1, 0x1.bf154de4bef77p+1,
        0x1.ba691d276da5ep+1, 0x1.b5db15091ea0fp+1, 0x1.b1699c003b60ap+1,
        0x1.ad13382d845c4p+1, 0x1.a8d68c2ad86eap+1, 0x1.a4b2543e84c3bp+1,
        0x1.a0a563e49f178p+1, 0x1.9caea3a24d9eap+1, 0x1.98cd0f18d1ad8p+1,
        0x1.94ffb34fc2a0ep+1, 0x1.9145ad2f37544p+1, 0x1.8d9e2823b3695p+1,
        0x1.8a085ce695babp+1, 0x1.8683906687342p+1, 0x1.830f12cc0bec3p+1,
        0x1.7faa3e96e1412p+1, 0x1.7c5477d1476d3p+1, 0x1.790d2b56b71f9p+1,
        0x1.75d3ce2bd71c3p+1, 0x1.72a7dce5cd218p+1, 0x1.6f88db1f42507p+1,
        0x1.6c7652f9a7b1ep+1, 0x1.696fd4a9748eep+1, 0x1.6674f60c3f432p+1,
        0x1.63855247b2e94p+1, 0x1.60a0897081879p+1, 0x1.5dc640388bd9ep+1,
        0x1.5af61fa38e107p+1, 0x1.582fd4c1b4461p+1, 0x1.5573106f8a75ap+1,
        0x1.52bf871acaab2p+1, 0x1.5014f08b99508p+1, 0x1.4d7307b1cb127p+1,
        0x1.4ad98a75da14cp+1, 0x1.4848398d39432p+1, 0x1.45bed851bc92cp+1,
        0x1.433d2c9bd42f8p+1, 0x1.40c2fe9f5eeadp+1, 0x1.3e5018cadded0p+1,
        0x1.3be447a8d8b83p+1, 0x1.397f59c345143p+1, 0x1.37211f88ca856p+1,
        0x1.34c96b33bc965p+1, 0x1.327810b2aa7d0p+1, 0x1.302ce59265965p+1,
        0x1.2de7c0e962d70p+1, 0x1.2ba87b445db51p+1, 0x1.296eee942532bp+1,
        0x1.273af61c7daa6p+1, 0x1.250c6e6403bbap+1, 0x1.22e33524fe550p+1,
        0x1.20bf293f0f4a2p+1, 0x1.1ea02aa9b3370p+1, 0x1.1c861a6782a5ap+1,
        0x1.1a70da7a27820p+1, 0x1.18604dd6fae9ep+1, 0x1.1654585c404c1p+1,
        0x1.144cdec6f3a2bp+1, 0x1.1249c6a92154ap+1, 0x1.104af660befcep+1,
        0x1.0e50550efcfb7p+1, 0x1.0c59ca900946fp+1, 0x1.0a673f733c819p+1,
        0x1.08789cf3aad0fp+1, 0x1.068dccf1126dbp+1, 0x1.04a6b9e9224a3p+1,
        0x1.02c34ef11391bp+1, 0x1.00e377af911d4p+1, 0x1.fe0e40add09d8p+0,
        0x1.fa5c6b3efe1e5p+0, 0x1.f6b1498515ed0p+0, 0x1.f30cb6ea0bc7fp+0,
        0x1.ef6e8fc5b9168p+0, 0x1.ebd6b154a7678p+0, 0x1.e844f9af4237fp+0,
        0x1.e4b947c16a452p+0, 0x1.e1337b426509bp+0, 0x1.ddb374ad2357fp+0,
        0x1.da391538da50ap+0, 0x1.d6c43ed1ea3fep+0, 0x1.d354d4130f2adp+0,
        0x1.cfeab83ed7180p+0, 0x1.cc85cf395a56cp+0, 0x1.c925fd82323fbp+0,
        0x1.c5cb282eab1a4p+0, 0x1.c27534e42e02dp+0, 0x1.bf2409d2dfd85p+0,
        0x1.bbd78db072610p+0, 0x1.b88fa7b324fb6p+0, 0x1.b54c3f8cf2542p+0,
        0x1.b20d3d66e8bb5p+0, 0x1.aed289dcaacffp+0, 0x1.ab9c0df81657ap+0,
        0x1.a869b32d0f30fp+0, 0x1.a53b63556c690p+0, 0x1.a21108ad0592dp+0,
        0x1.9eea8dcdde951p+0, 0x1.9bc7ddac7035dp+0, 0x1.98a8e3940bbf4p+0,
        0x1.958d8b235828ap+0, 0x1.9275c048e73e1p+0, 0x1.8f616f3fe1513p+0,
        0x1.8c50848cc6094p+0, 0x1.8942ecfa40f54p+0, 0x1.86389596108e7p+0,
        0x1.83316badfe62ap+0, 0x1.802d5ccce7277p+0, 0x1.7d2c56b7d17f7p+0,
        0x1.7a2e476b1240ap+0, 0x1.77331d177d130p+0, 0x1.743ac61fa041cp+0,
        0x1.714531150a9fbp+0, 0x1.6e524cb59a608p+0, 0x1.6b6207e8d3cdfp+0,
        0x1.687451bd3ebeep+0, 0x1.65891965c9b8cp+0, 0x1.62a04e3731a2ep+0,
        0x1.5fb9dfa56cf26p+0, 0x1.5cd5bd4119335p+0, 0x1.59f3d6b4e9cf9p+0,
        0x1.57141bc316f27p+0, 0x1.54367c42cb5f8p+0, 0x1.515ae81d900fbp+0,
        0x1.4e814f4cb45eap+0, 0x1.4ba9a1d6b18a4p+0, 0x1.48d3cfcc883c4p+0,
        0x1.45ffc94716ca7p+0, 0x1.432d7e6466cd0p+0, 0x1.405cdf44f09c4p+0,
        0x1.3d8ddc08d336dp+0, 0x1.3ac064ccfeffcp+0, 0x1.37f469a851af0p+0,
        0x1.3529daa8a1ba1p+0, 0x1.3260a7cfb7611p+0, 0x1.2f98c11031721p+0,
        0x1.2cd2164a53b5dp+0, 0x1.2a0c9748bcdaap+0, 0x1.274833bd0189fp+0,
        0x1.2484db3c2a329p+0, 0x1.21c27d3b10e05p+0, 0x1.1f01090a9c4e2p+0,
        0x1.1c406dd3d5283p+0, 0x1.19809a93d2396p+0, 0x1.16c17e1777ffbp+0,
        0x1.140306f707dbep+0, 0x1.114523917ac15p+0, 0x1.0e87c207a2f66p+0,
        0x1.0bcad03710137p+0, 0x1.090e3bb4b0072p+0, 0x1.0651f1c7276f8p+0,
        0x1.0395df60db162p+0, 0x1.00d9f119a3cd9p+0, 0x1.fc3c26504a9a1p-1,
        0x1.f6c462b57feb5p-1, 0x1.f14c6e202949fp-1, 0x1.ebd41e5e21b62p-1,
        0x1.e65b483cf1044p-1, 0x1.e0e1bf77c31fep-1, 0x1.db6756a429057p-1,
        0x1.d5ebdf1d86b8dp-1, 0x1.d06f28ef0e6fbp-1, 0x1.caf102bc25adbp-1,
        0x1.c57139a70d29fp-1, 0x1.bfef99359fe99p-1, 0x1.ba6beb33f8f89p-1,
        0x1.b4e5f794c979bp-1, 0x1.af5d844f224c9p-1, 0x1.a9d255396d261p-1,
        0x1.a4442be14884ap-1, 0x1.9eb2c75ff03bfp-1, 0x1.991de42ad1338p-1,
        0x1.93853bdfda244p-1, 0x1.8de8850d0c52ap-1, 0x1.884772f2be1ecp-1,
        0x1.82a1b53fed599p-1, 0x1.7cf6f7c7e8172p-1, 0x1.7746e23077973p-1,
        0x1.71911797990bbp-1, 0x1.6bd5362faa944p-1, 0x1.6612d6d0c68e0p-1,
        0x1.60498c7dd2ecfp-1, 0x1.5a78e3db8befdp-1, 0x1.54a0629786f4dp-1,
        0x1.4ebf86bcd0b93p-1, 0x1.48d5c5f35e712p-1, 0x1.42e28ca706748p-1,
        0x1.3ce53d12162a0p-1, 0x1.36dd2e26d8202p-1, 0x1.30c9aa526da4bp-1,
        0x1.2aa9ee123680bp-1, 0x1.247d26538ff2ep-1, 0x1.1e426e93e49e7p-1,
        0x1.17f8ceb4bdfa0p-1, 0x1.119f38749f5afp-1, 0x1.0b348479b80fcp-1,
        0x1.04b76ed6a7558p-1, 0x1.fc4d25d683209p-2, 0x1.ef00ccf5f4faap-2,
        0x1.e186678f1735ap-2, 0x1.d3da24df17c36p-2, 0x1.c5f7bd78c3f89p-2,
        0x1.b7da5dddda3c4p-2, 0x1.a97c8be5d5203p-2, 0x1.9ad80552237d2p-2,
        0x1.8be5954d3606fp-2, 0x1.7c9cdda17d019p-2, 0x1.6cf40f0a72bbdp-2,
        0x1.5cdf89d024ac3p-2, 0x1.4c515c60bfe21p-2, 0x1.3b388fe3d6ecap-2,
        0x1.2980290da2633p-2, 0x1.170db24d6f670p-2, 0x1.03bf049c65c3cp-2,
        0x1.decd8b76dbd98p-3, 0x1.b38d1ef79b7ccp-3, 0x1.85090fbc27a80p-3,
        0x1.522e6e54a2a73p-3, 0x1.19335a95b8dbap-3, 0x1.ad6b2495b4d2bp-4,
        0x1.0589d8b5d4119p-4, 0x0.0p+0,
};

inline constexpr std::array<double, kZigguratLayers + 1>
    kExponentialZigguratF = {
        0x1.5e5d3f59d055cp-13, 0x1.dc31c329f0b4bp-12, 0x1.fb20af78dfcb9p-11,
        0x1.92bb5540c3e25p-10, 0x1.1946ba8e1a324p-9, 0x1.6d888f3a1feffp-9,
        0x1.c58b381cd4b11p-9, 0x1.1073d69574043p-8, 0x1.3fa97cee322fdp-8,
        0x1.7049f37ec3620p-8, 0x1.a23e9d4974836p-8, 0x1.d5751fa745dc5p-8,
        0x1.04ef2295fd7f9p-7, 0x1.1fb69edb37671p-7, 0x1.3b0b8c1516f62p-7,
        0x1.56e930be416cbp-7, 0x1.734b6e6aa74f5p-7, 0x1.902ea688fa7bdp-7,
        0x1.ad8fa5542c92dp-7, 0x1.cb6b9146e2757p-7, 0x1.e9bfdde89c7cep-7,
        0x1.04452091e02f0p-6, 0x1.13e4554725f5fp-6, 0x1.23bc9e1b93a32p-6,
        0x1.33cd225315d84p-6, 0x1.44151ce87f0bep-6, 0x1.5493da6ab0251p-6,
        0x1.6548b72a24077p-6, 0x1.76331da87fc96p-6, 0x1.8752853ec9967p-6,
        0x1.98a670f132a48p-6, 0x1.aa2e6e6924e9bp-6, 0x1.bbea150fa5870p-6,
        0x1.cdd9054331b0cp-6, 0x1.dffae7a517468p-6, 0x1.f24f6c7af9890p-6,
        0x1.026b2590dfaeep-5, 0x1.0bc7a0c7cd651p-5, 0x1.153d09f19b3a1p-5,
        0x1.1ecb45ff312d4p-5, 0x1.28723c956c00cp-5, 0x1.3231d7e3f14aep-5,
        0x1.3c0a047ff18ffp-5, 0x1.45fab14266b19p-5, 0x1.5003cf296c5ebp-5,
        0x1.5a25513c5d2cap-5, 0x1.645f2c726a041p-5, 0x1.6eb1579b6af52p-5,
        0x1.791bcb4ab089ep-5, 0x1.839e81c3a396bp-5, 0x1.8e3976e80776dp-5,
        0x1.98eca827b7c4cp-5, 0x1.a3b81471bf138p-5, 0x1.ae9bbc26a8084p-5,
        0x1.b997a10bed985p-5, 0x1.c4abc640721e9p-5, 0x1.cfd83031e794ap-5,
        0x1.db1ce49315810p-5, 0x1.e679ea52eb2e5p-5, 0x1.f1ef49944e834p-5,
        0x1.fd7d0ba699676p-5, 0x1.04919d7f5c817p-4, 0x1.0a70f19871b3bp-4,
        0x1.105c88756ca50p-4, 0x1.165468f755392p-4, 0x1.1c589a86fa340p-4,
        0x1.22692512c9d8cp-4, 0x1.2886110ce0570p-4, 0x1.2eaf676948dd1p-4,
        0x1.34e5319c6e718p-4, 0x1.3b277999b9f9ep-4, 0x1.417649d25b10ep-4,
        0x1.47d1ad343985cp-4, 0x1.4e39af290d929p-4, 0x1.54ae5b959d036p-4,
        0x1.5b2fbed91bb3ep-4, 0x1.61bde5ccadef7p-4, 0x1.6858ddc30b620p-4,
        0x1.6f00b488416b6p-4, 0x1.75b5786193c1ep-4, 0x1.7c77380d7a6f3p-4,
        0x1.834602c3bc4bap-4, 0x1.8a21e835a533bp-4, 0x1.910af88e574b9p-4,
        0x1.9801447336b70p-4, 0x1.9f04dd046f428p-4, 0x1.a615d3dd938b7p-4,
        0x1.ad343b1655465p-4, 0x1.b460254356548p-4, 0x1.bb99a5771268fp-4,
        0x1.c2e0cf42e10afp-4, 0x1.ca35b6b80fd57p-4, 0x1.d198706914dd7p-4,
        0x1.d909116ad9398p-4, 0x1.e087af561bafbp-4, 0x1.e8146048eb9ccp-4,
        0x1.efaf3ae83c33cp-4, 0x1.f758566190414p-4, 0x1.ff0fca6cbea8dp-4,
        0x1.036ad7a6e7f04p-3, 0x1.07550eeb7a5bep-3, 0x1.0b4697b54b62fp-3,
        0x1.0f3f7efec1720p-3, 0x1.133fd20c9712fp-3, 0x1.17479e6f0ae78p-3,
        0x1.1b56f2031d666p-3, 0x1.1f6ddaf3dca65p-3, 0x1.238c67bbbe878p-3,
        0x1.27b2a72609940p-3, 0x1.2be0a8504cf34p-3, 0x1.30167aabe7d6ep-3,
        0x1.34542dffa0cafp-3, 0x1.3899d2694d5c9p-3, 0x1.3ce7785f8a905p-3,
        0x1.413d30b386a9ap-3, 0x1.459b0c92dccc6p-3, 0x1.4a011d8983096p-3,
        0x1.4e6f7583cb6fap-3, 0x1.52e626d078c49p-3, 0x1.57654422e78f5p-3,
        0x1.5bece0954c2b6p-3, 0x1.607d0fab06a31p-3, 0x1.6515e5530d1acp-3,
        0x1.69b775ea6da28p-3, 0x1.6e61d63ee84eap-3, 0x1.73151b91a2839p-3,
        0x1.77d15b99f46fep-3, 0x1.7c96ac8851baep-3, 0x1.816525094e7e6p-3,
        0x1.863cdc48c1af9p-3, 0x1.8b1de9f5062d5p-3, 0x1.900866425bb79p-3,
        0x1.94fc69ee692a1p-3, 0x1.99fa0e43e1623p-3, 0x1.9f016d1e4c512p-3,
        0x1.a412a0edf5cbcp-3, 0x1.a92dc4bc03c49p-3, 0x1.ae52f42eb5b0bp-3,
        0x1.b3824b8dcef3ep-3, 0x1.b8bbe7c72e4a5p-3, 0x1.bdffe67394435p-3,
        0x1.c34e65db9afeep-3, 0x1.c8a784fce1802p-3, 0x1.ce0b638f6d09fp-3,
        0x1.d37a220b431fdp-3, 0x1.d8f3e1ae3eeb8p-3, 0x1.de78c48224f39p-3,
        0x1.e408ed62f83a7p-3, 0x1.e9a48005940f2p-3, 0x1.ef4ba0fe8e09bp-3,
        0x1.f4fe75c963e7ep-3, 0x1.fabd24cff9354p-3, 0x1.0043eab93476ap-2,
        0x1.032f580797c2cp-2, 0x1.0620ef05d90d2p-2, 0x1.0918c4ee93e13p-2,
        0x1.0c16ef88f5333p-2, 0x1.0f1b852d9a66cp-2, 0x1.12269ccba9fbap-2,
        0x1.15384dee291efp-2, 0x1.1850b0c191982p-2, 0x1.1b6fde19abc5ap-2,
        0x1.1e95ef77b09dbp-2, 0x1.21c2ff10b7effp-2, 0x1.24f727d4776fdp-2,
        0x1.2832857457629p-2, 0x1.2b75346ae2262p-2, 0x1.2ebf520394270p-2,
        0x1.3210fc6312435p-2, 0x1.356a528fcd0ddp-2, 0x1.38cb747b17defp-2,
        0x1.3c34830abb285p-2, 0x1.3fa5a0230a14ep-2, 0x1.431eeeb1841e2p-2,
        0x1.46a092b80beefp-2, 0x1.4a2ab158bdad3p-2, 0x1.4dbd70e26f91dp-2,
        0x1.5158f8dde89f5p-2, 0x1.54fd721bda3e7p-2, 0x1.58ab06c3aa9efp-2,
        0x1.5c61e2631ee6cp-2, 0x1.602231fef5876p-2, 0x1.63ec2424827e4p-2,
        0x1.67bfe8fc60d9fp-2, 0x1.6b9db25e4e99cp-2, 0x1.6f85b3e649e9dp-2,
        0x1.7378230b08deap-2, 0x1.77753735e72e3p-2, 0x1.7b7d29dc6801ep-2,
        0x1.7f90369b6ce59p-2, 0x1.83ae9b5446138p-2, 0x1.87d8984bc3f8cp-2,
        0x1.8c0e704b75d39p-2, 0x1.905068c545d04p-2, 0x1.949ec9f9a8110p-2,
        0x1.98f9df2097ba8p-2, 0x1.9d61f695a3792p-2, 0x1.a1d76207521f4p-2,
        0x1.a65a76aa30140p-2, 0x1.aaeb8d6fdf6e5p-2, 0x1.af8b03428ef5fp-2,
        0x1.b43939454806fp-2, 0x1.b8f6951990b88p-2, 0x1.bdc3812aeeeb5p-2,
        0x1.c2a06d00ea583p-2, 0x1.c78dcd983fb60p-2, 0x1.cc8c1dc40e092p-2,
        0x1.d19bde97e1a0bp-2, 0x1.d6bd97db9ed7ap-2, 0x1.dbf1d88a7210cp-2,
        0x1.e139375e137fcp-2, 0x1.e6945367dd351p-2, 0x1.ec03d4b969d90p-2,
        0x1.f1886d1eb424dp-2, 0x1.f722d8ebfc5fap-2, 0x1.fcd3dfe214576p-2,
        0x1.014e2b160f324p-1, 0x1.043e8ebd26548p-1, 0x1.073b931ee3b7dp-1,
        0x1.0a45b8854d02ap-1, 0x1.0d5d8812b1e2bp-1, 0x1.108394a1cc38dp-1,
        0x1.13b87bc33169cp-1, 0x1.16fce6dce6feep-1, 0x1.1a518c71e3b25p-1,
        0x1.1db7319877b89p-1, 0x1.212eaba813ec8p-1, 0x1.24b8e228c50a3p-1,
        0x1.2856d111132bdp-1, 0x1.2c098b61f4f24p-1, 0x1.2fd23e345da5ep-1,
        0x1.33b23450e6318p-1, 0x1.37aada708ddd9p-1, 0x1.3bbdc44e1d114p-1,
        0x1.3fecb2bb18b80p-1, 0x1.44399afa8e125p-1, 0x1.48a6afb8ee069p-1,
        0x1.4d366c151f8afp-1, 0x1.51eba1578899ap-1, 0x1.56c9882da8773p-1,
        0x1.5bd3d694cac75p-1, 0x1.610edc1a7af66p-1, 0x1.667fa6d4f5c06p-1,
        0x1.6c2c3498418c6p-1, 0x1.721bb5ba94b63p-1, 0x1.7856e9b09d47ep-1,
        0x1.7ee8a2d243126p-1, 0x1.85de87806c5b8p-1, 0x1.8d4a376d3d22fp-1,
        0x1.95431c455aa39p-1, 0x1.9de9715556d9bp-1, 0x1.a76baa562fae7p-1,
        0x1.b210f0ee67f2ap-1, 0x1.be5007beb7b27p-1, 0x1.cd0a65081fff1p-1,
        0x1.e0545e5881137p-1, 0x1.0000000000000p+0,
};

/// ⌊2^53·b/a⌋ for normal doubles a/2 ≤ b < a (or b = 0), exact: long
/// division of the 53-bit significands.  With k = ⌊2^53·x_{i+1}/x_i⌋,
/// every 53-bit abscissa j < k of layer i has j·x_i < 2^53·x_{i+1}, i.e.
/// lies under the layer above (in layer 0: below r); j = k, which may
/// too, goes to the slow path.
[[nodiscard]] constexpr std::uint64_t zigguratFastBound(double a,
                                                        double b) noexcept {
  if (b == 0.0) return 0;
  constexpr std::uint64_t kHidden = std::uint64_t{1} << 52;
  const auto bitsA = std::bit_cast<std::uint64_t>(a);
  const auto bitsB = std::bit_cast<std::uint64_t>(b);
  const std::uint64_t divisor = (bitsA & (kHidden - 1)) | kHidden;
  std::uint64_t remainder = (bitsB & (kHidden - 1)) | kHidden;
  // 2^53·b/a = (significand ratio)·2^shift, with shift in [52, 53].
  const int shift = 53 + static_cast<int>(bitsB >> 52) -
                    static_cast<int>(bitsA >> 52);
  std::uint64_t quotient = remainder / divisor;
  remainder %= divisor;
  for (int bit = 0; bit < shift; ++bit) {
    remainder <<= 1;
    quotient <<= 1;
    if (remainder >= divisor) {
      remainder -= divisor;
      quotient |= 1;
    }
  }
  return quotient;
}

/// The fast-path entry of one layer: a 53-bit draw j with j < k lands
/// inside the layer's fully covered part, and then j·w is the variate.
/// k = ⌊2^53·x_{i+1}/x_i⌋ on the doubles above, and w = x_i·2^-53 is an
/// exact power-of-two scaling.
struct ZigguratLayer {
  std::uint64_t k;
  double w;
};

alignas(64) inline constexpr std::array<ZigguratLayer, kZigguratLayers>
    kExponentialZigguratLayers = [] {
      std::array<ZigguratLayer, kZigguratLayers> layers{};
      for (std::size_t i = 0; i < kZigguratLayers; ++i) {
        layers[i] = {zigguratFastBound(kExponentialZigguratX[i],
                                       kExponentialZigguratX[i + 1]),
                     kExponentialZigguratX[i] * 0x1.0p-53};
      }
      return layers;
    }();

}  // namespace sops::rng

#endif  // SOPS_RNG_ZIGGURAT_TABLES_HPP
