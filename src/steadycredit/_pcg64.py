"""numpy's ``default_rng(seed).normal(0.0, sigma, n)`` stream in pure Python.

``normal(seed, sigma, n)`` returns, bit for bit, the list that
``numpy.random.default_rng(seed).normal(0.0, sigma, n).tolist()`` returns, so
``synth`` draws its noise without importing numpy. It ports three parts of
numpy's ``numpy.random``:

- ``SeedSequence(seed).generate_state(4, uint64)``, the seed's hash;
- PCG64, O'Neill's XSL-RR 128/64 generator (2014), seeded as numpy's
  ``pcg64_set_seed`` seeds it;
- ``random_standard_normal`` from numpy's ``distributions.c``, the ziggurat of
  Marsaglia & Tsang (2000), and ``random_normal``'s ``loc + scale * z``.

The identity holds where CPython's ``math.exp`` and ``math.log1p`` are the libm
functions numpy's C code calls and numpy's build contracts no multiply-add
into a fused one; ``tests/test_synth.py`` checks it against numpy.
"""

from __future__ import annotations

import base64
import math
import struct
from collections.abc import Iterator

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_ZIGGURAT_R = 3.6541528853610087963519472518
_ZIGGURAT_INV_R = 0.27366123732975827203338247596

# numpy's ziggurat tables fi_double, wi_double and ki_double (256 entries each,
# little-endian float64, float64 and uint64), copied from the read-only data of
# numpy 2.4's numpy/random/lib/libnpyrandom.a. numpy is distributed under the
# BSD 3-Clause licence, Copyright (c) 2005-2025, NumPy Developers. The tables
# are data: the Marsaglia-Tsang recursion does not rebuild their last bits.
_TABLES = base64.b64decode(
    "AAAAAAAA8D+H8HnJakTvPxWpbFtUt+4/d/An4BE/7j+V3gSnb9PtP/K8VwaScO0/3BmheEkU7T/r"
    "LaeoM73sP394qc5eauw/6rru2Rwb7D+C3OFO687rP1L1jzplhes/EN00gjo+6z+i6Gw/KvnqPwQl"
    "evH+teo/4clQ1Yt06j8Pr/X9qjTqP9gfZe479uk/gQYkjSK56T/BemFXRn3pP0d6G8KRQuk/T3Ex"
    "vfEI6T+oCuZPVdDoPwLfukitmOg/rLw3/Oth6D9uz1YPBSzoP8viIEvt9uc/WGicd5rC5z/VsKA8"
    "A4/nP1bYcAcfXOc/Em0/9OUp5z/ueuq6UPjmP4laY55Yx+Y/KjtRXveW5j8j45IqJ2fmPxgMVZji"
    "N+Y/ZSaAmCQJ5j9q/0pv6NrlP4lcyKwpreU/j41MJuR/5T9Gno3wE1PlP9VsZVq1JuU/Z7Yg6MT6"
    "5D/ATklPP8/kP3hS3HIhpOQ/ElDfX2h55D95NklKEU/kP+NfNYoZJeQ/gltYmX774z+jMa8QPtLj"
    "Pw7NYqZVqeM/1QDaK8OA4z/pUPWLhFjjPzU6cMmXMOM/7zhk/foI4z/uO+pVrOHiP0qV1xSquuI/"
    "Fc2TjvKT4j/tBAUphG3iP4TbkFpdR+I/8vcvqXwh4j8glpKp4PvhP2mZVP6H1uE/EdE/V3Gx4T9Q"
    "PJtwm4zhP9o5hhIFaOE/nKleEK1D4T84HzFIkh/hPxNZMqKz++A/oEJBEBDY4D+u2XCNprTgP4Fd"
    "mR12keA/NjzwzH1u4D8uP6avvEvgPyqCi+ExKeA/xMq4hdwG4D+hvXuMd8nfP8oAqaedhd8/83ov"
    "yylC3z+Vj35xGv/eP1QfvSBuvN4/xcNOaiN63j+Fm1/qODjePwk6dket9t0/sVYLMn+13T8z3iZk"
    "rXTdP4AQAqE2NN0/bVuutBn03D9IqMBzVbTcP8fXALvodNw/uCwdb9I13D8XamF8EffbP5Ftcdak"
    "uNs/GxMHeIt62z/KMbNixDzbP1KFoZ5O/9o/nlpfOinC2j+A2KRKU4XaP03AIOrLSNo/PoRGOZIM"
    "2j/fkx5epdDZP8bAGIQEldk/k5/g265Z2T8XyzObox7ZPxXxufzh49g/iJHeP2mp2D+2WqyoOG/Y"
    "P9kNqn9PNdg/Edm4Ea371z+wFPSvUMLXP+tSkq85idc/7bHHaWdQ1z9MYak72RfXP6pMEoaO39Y/"
    "Id6IrYan1j/iyyUawW/WPxXlezc9ONY/yNKAdPoA1j9EwnZD+MnVP77u1hk2k9U/AAE9cLNc1T/t"
    "O1PCbybVP5Jtv45q8NQ/opwQV6O61D/Uaq2fGYXUP/4kw+/MT9Q/GXo10bwa1D/b0o7Q6OXTP65D"
    "8XxQsdM/eRMIaPN80z+e0fkl0UjTPy/2Wk3pFNM/Zgchdzvh0j/dP5Y+x63SPx6xTUGMetI/id4X"
    "H4pH0j+ezPd5wBTSPxaBGPYu4tE/UPDCOdWv0T/oVFTtsn3RP2fuNLvHS9E/IyTPTxMa0T/ECYdZ"
    "lejQP9pCsohNt9A/NkOQjzuG0D/Z6UIiX1XQP350x/a3JNA/xZPfiYvozz81MriMEIjPP9KY6Wz+"
    "J88/RJzJpFTIzj/dPCiyEmnOP4RxRRY4Cs4/CpDHVcSrzT9PUbL4tk3NP8xvXooP8Mw/U99xmc2S"
    "zD9Hndi38DXMP6EYvnp42cs/qjGHemR9yz860cxStCHLPwcYV6Jnxso/fiYZC35ryj89fi0y9xDK"
    "P1r+0r/Stsk/J3xqXxBdyT9p+nS/rwPJP1uBkpGwqsg/OJqBihJSyD91cR9i1fnHPyOjaNP4occ/"
    "prV6nHxKxz8WR5Z+YPPGP1zyIT6knMY/nPGtokdGxj/5g/h2SvDFP2wd84ismsU/NWjIqW1FxT/B"
    "H+OtjfDEPy3O9WwMnMQ/1XUDwulHxD+uMWmLJfTDP+7X6Kq/oMM/iKu0BbhNwz9lKnyEDvvCPxoH"
    "ehPDqMI/t16DotVWwj80PBglRgXCP0J9dZIUtME/Yy2o5UBjwT+5bqIdyxLBP7oJUj2zwsA/hb+4"
    "S/lywD8qfQZUnSPAPywia8s+qb8/HA5SKf8Lvz9LpZrye2++P4/odmG1070/5ZG9uas4vT8KdDtJ"
    "X568PxUQC2jQBLw/M+LyeP9ruz8z9srp7NO6P4Zi6jOZPLo/GVud3ASmuT+roKR1MBC5P1Iov50c"
    "e7g/1u8+Acrmtz92EapaOVO3P0xKaXNrwLY/GE2FJGEutj+kZnRXG521P64r+gabDLU/EyIbQOF8"
    "tD+GmiYj7+2zP3A+2eTFX7M/ETGbz2bSsj+RDd1E00WyP32Jl74MurE/nRfy0BQvsT8llhUs7aSw"
    "P5fkMJ6XG7A/NW5sKywmrz+BUbJH1RauP2Lxrf4uCa0/LCooDz79qz9wXziQB/OqP2NVKfmQ6qk/"
    "q7VoKuDjqD8eJ693+96nP2TQmLPp26Y/1K3yPLLapT9dJxEOXdukP8vumM7y3aM/l/Q96Hzioj+8"
    "ah+fBemhPxGAli6Y8aA/xKUY14H4nz91jILbGhKePxoJzYMZMJw/+OsiTp9Smj8KwQC20XmYP4K/"
    "C/TapZY/ZLD78urWlD8TXquNOA2TPxIwYDQDSZE/Sd1yTyoVjz+sj08njaSLP3ikjQ0EQYg/4M8a"
    "QpbrhD+SL5UpkqWBPzdo7Phg4Xw/XbgM2aiedj/9sbADH4pwP2ewwUOfX2U/D/e5tgWmVD952RV4"
    "O0nPPMb2/eMLjYs8tFssPK9QkjxhO0Q4uXyVPAynL+j8AZg8vNBMLgwjmjz3YTgvTQCcPHRydFov"
    "rJ08w9VMLUgynzytu44nMk2gPENdAjsF9aA8dzZBl6aSoTz1GnqPoieiPIDYYzgutaI89ZFXwD88"
    "ozwvsaLBnr2jPFWb/43vOaQ8p/49NruxpDx00xpidSWlPJbOB6eAlaU86n7ZzzECpjw9fKNh0mum"
    "PHAFAJKi0qY8pvhG09o2pzx3KrMQrZinPEP1Rq1F+Kc8dwpDU8xVqDyadnueZLGoPJjPTqkuC6k8"
    "6h4sgkdjqTxGxTiOybmpPCynpNzMDqo8Wc13bWdiqjwwFhBurbSqPJxsE22xBas8KXpCh4RVqzw6"
    "n1KONqSrPDKCvyrW8as8805Z+XA+rDxhOzKlE4qsPIsmcv7J1Kw8SLeADp8erTwQH+QpnWetPMO4"
    "IwDOr608U3bxqTr3rTz+7dK16z2uPABvejPpg648zoL5vTrJrjwmYvCE5w2vPIj22FT2Ua88rteH"
    "nm2VrzysLvp9U9ivPOw0QuBWDbA8mo859UAusDz8pRae6k6wPBCgcltWb7A8C/RxkIaPsDwTYbyE"
    "fa+wPH/MS2Y9z7A8awgWS8jusDzuFZUyIA6xPL4PMQdHLbE8QZGOnz5MsTweIMS/CGuxPDTaeBqn"
    "ibE8iG3uURuosTzLKvj4ZsaxPC7U4JOL5LE8n6BAmYoCsjzpxsRyZSCyPB/D6X0dPrI8+2upDLRb"
    "sjx/0x1mKnmyPBvXGceBlrI82i64YruzsjxTuOFi2NCyPI6py+jZ7bI810huDcEKszwwufThjiez"
    "PKFeJnBERLM81VLKuuJgszxqWAW+an2zPGSysm/dmbM8Az24vzu2szzgHVaYhtKzPINact6+7rM8"
    "dJ7gceUKtDxddKYt+ya0PKQwPOgAQ7Q8XcfKc/detDw2w2ae33q0PC+PSDK6lrQ8XUEC9oeytDzc"
    "EbOsSc60PAWmOBYA6rQ8YlVe76sFtTxaiwryTSG1PE9matXmPLU8yLIbTndYtTx4X1UOAHS1PBSF"
    "DsaBj7U8WRskI/2qtTw9c33Rcsa1PNOML3vj4bU8OF6fyE/9tTzDH6NguBi2PKKwougdNLY8Cya3"
    "BIFPtjxylslX4mq2PDcxsYNChrY8sbJQKaKhtjy7Q7PoAb22PFLTKGFi2LY8VPhhMcTztjzraIv3"
    "Jw+3PMYUaVGOKrc83O5w3PdFtzwfc+U1ZWG3PEn07/rWfLc8k726yE2YtzwJFIs8yrO3PPsi2/NM"
    "z7c8595zjNbqtzwf6oakZwa4PHaGyNoAIrg8FZ+JzqI9uDy99dEfTlm4PMV+em8Ddbg8LfdHX8OQ"
    "uDxDwAWSjqy4PJwMoatlyLg8J2pEUUnkuDyPtXMpOgC5PEeDKNw4HLk8/ArvEkY4uTyKogN5YlS5"
    "PO7VcLuOcLk8MSouicuMuTy/mT+TGam5PCzZ1Yx5xbk8EXRvK+zhuTxK0vomcv65PJI2+TkMG7o8"
    "W8iiIbs3ujyIuwuef1S6PKSpSnJacbo8PTGgZEyOujwI8Z8+Vqu6PM71Ws14yLo8NrOL4bTlujwa"
    "ocNPCwO7PFuYmvB8ILs8AAzgoAo+uzwDPc5BtVu7PCeJP7l9ebs8PPfl8WSXuzxuJYXba7W7PKLA"
    "LmuT07s8g66Bm9zxuzygFuxsSBC8PC168OXXLrw8HA1uE4xNvDwFh+wIZmy8PBem6+Bmi7w8q6I2"
    "vY+qvDyQ1jvH4cm8PDfgaDBe6bw8bo+LMgYJvTwg7zcQ2yi9PEfGMxXeSL08I/HnlhBpvTyl+9f0"
    "c4m9PHBuIJkJqr08Dkn8+NLKvTw3LlKV0eu9PBzSSfsGDb489kbqxHQuvjyI0cGZHFC+PCX+ly8A"
    "cr48Cr8qSyGUvjwIb/fAgba+PDqnEHYj2b48qewBYQj8vjwhU8KKMh+/PG1Ntw+kQr88aAHJIF9m"
    "vzyCl4kEZoq/PL8icRi7rr88hecv0mDTvzwL9hjBWfi/PHWg00fUDsA8R8mPAqghwDyrAqmDqTTA"
    "PMf1Pk7aR8A8frOt9jtbwDxoJqcj0G7APBcuY4+YgsA8VKLoCJeWwDzEwHF1zarAPEjU7tE9v8A8"
    "MD2qNOrTwDyTZRHP1OjAPLafpu///cA8QXAgBG4TwTw1XbubISnBPG0JxGkdP8E8Oy5gSGRVwTzz"
    "7p07+WvBPGES0nTfgsE8rOtOVhqawTyOL393rbHBPJSmcamcycE8Oa7k++vhwTwB2eLCn/rBPIHM"
    "BJ28E8I87tNvekctwjwknKykRUfCPOBYdse8YcI8Llmo+rJ8wjx4DnfNLpjCPFIKKlM3tMI8l9uW"
    "MdTQwjz1eKmxDe7CPO6uVtLsC8M8o6RoXnsqwzyjEq4FxEnDPECoM3rSacM8CkFWkrOKwzz6iK5w"
    "dazDPKYEF7Mnz8M8dfRgqtvywzza5bmcpBfEPJReVBWYPcQ8FTqnRM5kxDy8Q5x1Yo3EPCdaa51z"
    "t8Q8AonNDSXjxDxBrOlTnxDFPEJ+OlIRQMU8G+RKqbFxxTzZjXGLwKXFPP7QOiSK3MU8TB6Gz2kW"
    "xjzqagB7zlPGPMPln75AlcY8MuIJjWvbxjw0el/wKCfHPHMGCVaVecc8jM7W9C3Uxzw08ikFAznI"
    "PBR8qr8Pq8g8lkRvlOAuyTyrV0AB7svJPFp3lHjcj8o8sf14OB+YyzwzrQmCtDvNPGrvJYA98w4A"
    "AAAAAAAAAACoxvuYvggMAEKBvfpUow0A6u7BfvZRDgB+99PpVbIOALnKfoFL7w4AqkT6CkcZDwAY"
    "y/9h7TcPAFwlYZVGTw8AlqMb5KVhDwCkllN1enAPAJpEKOyyfA8A01djDPGGDwDeJYNXpo8PANrQ"
    "Tccklw8ACfXbB6mdDwB0+oH1YKMPAPhLW95vqA8A3FTTYPGsDwAPuRhn+7APAMZ0U42ftA8Ad/5m"
    "I+y3DwAO5aHp7LoPAO0LBJ2rvQ8AV2z/YDDADwBIojcQgsIPANFb4nqmxA8AMe56l6LGDwCkliip"
    "esgPAIXeS14yyg8AGiMC6czLDwDEOfgSTc0PAJnsj021zg8AMMkdvwfQDwDmxNZNRtEPAFD04qhy"
    "0g8AHsnwT47TDwB4tJCZmtQPAFMPkriY1Q8A7JmOwInWDwAy6MipbtcPAOgIe1RI2A8AjCytixfZ"
    "DwDSracH3dkPAIxeEHCZ2g8AIC7AXU3bDwDQ/Ftc+dsPAH2aueud3A8AnXIYgTvdDwCQLzSI0t0P"
    "AGSfNmRj3g8ATlGNcO7eDwAutKYBdN8PAEDtmWX03w8A8iS85G/gDwBYoiXC5uAPAEy4KDxZ4Q8A"
    "mT+8jMfhDwCqHNvpMeIPAJEb2oWY4g8AhkG1j/viDwBKjVUzW+MPACoA0Jm34w8Af62e6RDkDwA0"
    "d9RGZ+QPAFwJTNO65A8AJJXSrgvlDwB4vE73WeUPABIS5Mil5Q8AiYYTPu/lDwB4ENlvNuYPAHjV"
    "xnV75g8AqhEeZr7mDwDy9OVV/+YPAAKnAFk+5w8AOZ4+gnvnDwCicHDjtucPAENCd43w5w8AjPBT"
    "kCjoDwA6FzX7XugPAGQIhNyT6A8AvM7wQcfoDwD2Tn04+egPAB2bh8wp6Q8A6ojTCVnpDwCimpP7"
    "hukPAGZIcayz6Q8A1baUJt/pDwB85qtzCeoPAKRm8Zwy6g8ALJUyq1rqDwAadNWmgeoPAPAc3pen"
    "6g8AINnzhczqDwA85mV48OoPABPsL3YT6w8ASir+hTXrDwC0YjGuVusPAPqE4vR26w8AFCDmX5br"
    "DwB8nc/0tOsPANBJ9LjS6w8APi5use/rDwDovR7jC+wPABVasVIn7A8A06+dBELsDwCW8Sn9W+wP"
    "APTubEB17A8AtAxQ0o3sDwASH5G2pewPAP4nxPC87A8AFftUhNPsDwCzyIh06ewPALeRf8T+7A8A"
    "KIU1dxPtDwADSYSPJ+0PAEwvJBA77Q8Ablit+03tDwDdw5hUYO0PAOhPQR1y7Q8AgqnkV4PtDwDI"
    "LKQGlO0PAAS3hSuk7Q8AtGp0yLPtDwBSZkHfwu0PAFJupHHR7Q8A04o8gd/tDwCAmZAP7e0PABTU"
    "Dx767Q8AxEsSrgbuDwAGWtnAEu4PAOAGkFce7g8AJGVLcynuDwC85AoVNO4PADybuD0+7g8A9IIp"
    "7kfuDwCGsB0nUe4PAEF/QOlZ7g8ALrQoNWLuDwDxl1gLau4PAHoHPmxx7g8AgnsyWHjuDwC6BnvP"
    "fu4PALJKSNKE7g8AQ2O2YIruDwBRyMx6j+4PANolfiCU7g8A6imoUZjuDwBcSBMOnO4PAPRzclWf"
    "7g8ArsxiJ6LuDwCsQmuDpO4PAHEt/Gim7g8A+tZu16fuDwAK+gTOqO4PADsz6Eup7g8AEGQpUKnu"
    "DwBeB8DZqO4PAFR2ieen7g8AJB1IeKbuDwCDnqKKpO4PANrkIh2i7g8AJCA1Lp/uDwAurya8m+4P"
    "AOTyJMWX7g8AOgo8R5PuDwAWdVVAju4PAHqcNq6I7g8A/T1/joLuDwCIuKfee+4PAP83/5t07g8A"
    "Xr2pw2zuDwB+AJ5SZO4PAIgoo0Vb7g8AtldOmVHuDwDPBgBKR+4PAFAs4VM87g8A2CrgsjDuDwAF"
    "gq1iJO4PAFo8uF4X7g8ARxQqognuDwDMSeMn++0PAGwhdurr7Q8AfgQi5NvtDwDTOc4Oy+0PAPQs"
    "BGS57Q8AyTjp3KbtDwCN6Tdyk+0PADaoOBx/7Q8AK8C50mntDwAArgaNU+0PACKk3kE87Q8A2C9q"
    "5yPtDwBE5i9zCu0PADT+B9rv7A8AuLcOENTsDwC0bpUIt+wPAMEwEraY7A8AeKkNCnnsDwD+MQ/1"
    "V+wPAGLJhmY17A8ANbO0TBHsDwDQb46U6+sPAJK2oCnE6w8A3Azu9ZrrDwBChcnhb+sPAJ4frdNC"
    "6w8ASy0LsBPrDwDpAhpZ4uoPAFcima6u6g8AJuOOjXjqDwDlc/3PP+oPAPbZjUwE6g8AO1Yv1sXp"
    "DwCkR6k7hOkPAChHHUc/6Q8A1sV2vfboDwDm6MRdqugPAOqxeuBZ6A8AQKmQ9gToDwDAM4JIq+cP"
    "AKVqH3VM5w8AAqIqEOjmDwDYq7agfeYPAH4wOJ8M5g8AQvc4c5TlDwCAcpdwFOUPAFj0NtSL5A8A"
    "Nx79v/njDwCcse41XeMPAP7kLxK14g8AV1WZAwDiDwAUg3iCPOEPALBn7sRo4A8AqnErsILfDwCq"
    "/n7Fh94PAP07xgl13Q8AE78p5UbcDwCCAi74+NoPAHW6suGF2Q8ABM9I7+bXDwALZb2tE9YPABLw"
    "4kkB1A8ArMe0p6HRDwCeH3YE4s4PALIRXtioyw8AIi3NbtLHDwDtIh4vK8MPADq4wIFlvQ8ANFQA"
    "xAa2DwB0KCpYQKwPAJhFAR6Xng8A/B2kSPqJDwAsMPD3xWYPAEocM0taGg8A"
)
_FI = struct.unpack_from("<256d", _TABLES, 0)
_WI = struct.unpack_from("<256d", _TABLES, 2048)
_KI = struct.unpack_from("<256Q", _TABLES, 4096)


def _seed_state(seed: int) -> list[int]:
    """``numpy.random.SeedSequence(seed).generate_state(4, numpy.uint64)``."""
    entropy = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def _uint64s(seed: int) -> Iterator[int]:
    """The outputs of ``numpy.random.PCG64(seed)``: step, then XSL-RR."""
    s0, s1, s2, s3 = _seed_state(seed)
    inc = ((s2 << 64 | s3) << 1 | 1) & _M128
    state = (((s0 << 64 | s1) + inc) * _PCG_MULT + inc) & _M128
    while True:
        state = (state * _PCG_MULT + inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        yield (x >> rot | x << (64 - rot)) & _M64


def normal(seed: int, sigma: float, n: int) -> list[float]:
    """``numpy.random.default_rng(seed).normal(0.0, sigma, n).tolist()``."""
    bits = _uint64s(seed)

    def unit() -> float:
        return (next(bits) >> 11) * 2.0**-53

    def standard_normal() -> float:
        while True:
            r = next(bits)
            idx = r & 0xFF
            rabs = r >> 9 & 0xFFFFFFFFFFFFF
            x = -(rabs * _WI[idx]) if r & 0x100 else rabs * _WI[idx]
            if rabs < _KI[idx]:
                return x
            if idx == 0:  # the tail beyond r
                while True:
                    xx = -_ZIGGURAT_INV_R * math.log1p(-unit())
                    yy = -math.log1p(-unit())
                    if yy + yy > xx * xx:
                        return -(_ZIGGURAT_R + xx) if rabs >> 8 & 1 else _ZIGGURAT_R + xx
            elif (_FI[idx - 1] - _FI[idx]) * unit() + _FI[idx] < math.exp(-0.5 * x * x):
                return x

    return [0.0 + sigma * standard_normal() for _ in range(n)]
