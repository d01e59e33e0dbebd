"""Golden-output gates: every CLI example in the README, and every
subcommand in each of its --format choices, byte for byte.

The digests are sha256 of each command's stdout, recorded before the
output paths were refactored; the matrix also pins each exit code.  A
change that moves any byte of these outputs fails here.
"""

import hashlib
import io
import re
from pathlib import Path

import pytest

from collatzkit.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"

GOLDEN = {
    "classify 9": "cf4c2f8b388616294a3c333d26c30af9a1f90c92204478300467761f921c256f",
    "trajectory 27": "db957f8af4e6860cb9a08524933d3e9a6dc17cd50f06cf470ca5a785d3ddbc55",
    "trajectory 27 --method lookup": "db957f8af4e6860cb9a08524933d3e9a6dc17cd50f06cf470ca5a785d3ddbc55",
    "trajectory 3 --end 999 --format json": "a83d49fd1ea6e4da4186221ea0501af81794cc8d82e9493e5d3ebecb548efba4",
    "trajectory 3 --end 999 --stats --format csv": "6103e5fe9f0d455c3c42e6292439df3b716a2fcdc3721bbcb6a75159311bf6ff",
    "predecessors 41 --count 3": "39ecf059e48c88f532da9697f75095b472602bfd1a6682236a452e2dfe783ce2",
    "predecessors 85 --to-starter": "a59537b9797ebae4348f8eae0d6be2f59c957db15fa88ac933082fdeb683eb97",
    "locate 27": "d8e48c3431c00f0d9653023084a559132ef7f0f9c8ba850d2943d2c9692407b6",
    "tree --depth 2 --breadth 4 --format dot": "62acfc8b22a8d8c310c9436bf2cff42f7de2986ae7ec5788f20008028e2c0d40",
    "alpha-table --rows 36 --cols 10 --format csv": "198434ab45e20cb08d730595e2247257894808cea8cca36839629edd2df1bfd4",
    "alpha-table --chain 63": "d9b174c393cbd8f90334ba139320bbb7b2ca47cde5cf18bcef10dcd92f86de98",
    "drift --terms 60 --bound 1000000": "8918922f289393726e82932b5e5e6e20cf169960de15a59713e61c92901b14b6",
    "verify --bound 100000 --workers 4": "78179eb7fa99f7757e3a880291a27c111b692a98e068c833cd7729f1199d3483",
    "table-export --table B --rows 36": "3419898b1d82407eb93bd8252811911602592dcd30a5f0d58f4e76ed999e8f9f",
}


def readme_examples() -> list[str]:
    """Command lines of the README's `collatzkit ...` examples, without comments or redirection."""
    examples = []
    for line in README.read_text().splitlines():
        match = re.match(r"collatzkit (.+?)\s*(?:#.*)?$", line)
        if match:
            examples.append(match.group(1).split(">")[0].strip())
    return examples


def test_every_readme_example_has_a_digest():
    assert readme_examples() == list(GOLDEN)


@pytest.mark.parametrize("example", list(GOLDEN))
def test_readme_example_stdout_is_unchanged(example):
    out, err = io.StringIO(), io.StringIO()
    assert run(example.split(), out, err) == 0, err.getvalue()
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[example]


# (sha256 of stdout, exit code) per command line: every subcommand in each
# of its --format choices, both walk methods, both alpha-table modes, each
# drift input and a verify past its table, plus domain and usage errors.  Leading
# NAME=value words set environment variables for the command
MATRIX = {
    "classify 7": ("1a32683cde84359d68de46eda08449371508e8b5126769c28887c66d151ab4f5", 0),
    "classify 7 --format json": ("e2ab99312622dd735f245fa45c54a2630179825a95de17ef15db2cbec26838f0", 0),
    "classify 85 --format json": ("28ea5386b35682eb849978eddaf84b7c147ebcbebf3c1c6e981e20ed00828583", 0),
    "classify 8": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1),
    "trajectory 27": ("db957f8af4e6860cb9a08524933d3e9a6dc17cd50f06cf470ca5a785d3ddbc55", 0),
    "trajectory 27 --format json": ("d3f60b0e8f2f8447f82c841948faf412ba48fb051bca8419633709e80e475942", 0),
    "trajectory 27 --method lookup --format json": ("d3f60b0e8f2f8447f82c841948faf412ba48fb051bca8419633709e80e475942", 0),
    # 2**1100 - 1: 5108 iterates, so 20 blocks per line, up to 1743 bits, so
    # rendered by the Decimal route
    f"trajectory {2**1100 - 1}": ("eb165ed32692d257988be265c6df632283c04029ae532b26f94cbb753665416b", 0),
    f"trajectory {2**1100 - 1} --method lookup": ("eb165ed32692d257988be265c6df632283c04029ae532b26f94cbb753665416b", 0),
    f"trajectory {2**1100 - 1} --format json": ("7d6add423086621674433d8474e30c131f075a4ce8a6c2df3dfed1e8660007b3", 0),
    f"trajectory {2**1100 - 1} --method lookup --format json": ("7d6add423086621674433d8474e30c131f075a4ce8a6c2df3dfed1e8660007b3", 0),
    # 2**1026 + 3**640: 2494 iterates, falling below 1024 bits and climbing
    # back above twice, so the Decimal route restarts; one step under its
    # budget it writes nothing
    f"trajectory {2**1026 + 3**640}": ("6718bbcfc6f2885aaaf7a3a03f0e2b6a0b2bf4c6481bbd5f5b1b2f442a08c5fe", 0),
    f"trajectory {2**1026 + 3**640} --format json": ("40440ad33800608c8345f4cc96b5669aba692d84d44b1f76e5a9f3e1b05a038a", 0),
    f"trajectory {2**1026 + 3**640} --method lookup": ("6718bbcfc6f2885aaaf7a3a03f0e2b6a0b2bf4c6481bbd5f5b1b2f442a08c5fe", 0),
    f"trajectory {2**1026 + 3**640} --method lookup --format json": ("40440ad33800608c8345f4cc96b5669aba692d84d44b1f76e5a9f3e1b05a038a", 0),
    f"COLLATZ_MAX_STEPS=2494 trajectory {2**1026 + 3**640} --format json": ("40440ad33800608c8345f4cc96b5669aba692d84d44b1f76e5a9f3e1b05a038a", 0),
    f"COLLATZ_MAX_STEPS=2493 trajectory {2**1026 + 3**640}": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    f"COLLATZ_MAX_STEPS=2493 trajectory {2**1026 + 3**640} --method lookup --format json": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "trajectory 3 --end 99": ("8d412ec74b8393cecf2d7521a0d0e7ec30e8c896907af5c521b80feb8af09520", 0),
    "trajectory 3 --format csv": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1),
    "trajectory 3 --end 99 --stats": ("fb8aa65b2384a9cfd58f1862d62c0b845bf1be575d4b7d638acfb606eaefbaa1", 0),
    "trajectory 3 --end 99 --stats --format json": ("6d6bc405da6078c9e0a29cbe836e7ccbd2caeebe4ad3c2dcb8e0b8892d8f8680", 0),
    "trajectory 3 --end 99 --stats --format csv": ("8b79113271591b8344d8fed00a2d631adccd8d299d8e9e02e31de172410d3c7d", 0),
    "trajectory 3 --end 99 --stats --method lookup": ("fb8aa65b2384a9cfd58f1862d62c0b845bf1be575d4b7d638acfb606eaefbaa1", 0),
    "trajectory 3 --end 99 --stats --method lookup --format json": ("6d6bc405da6078c9e0a29cbe836e7ccbd2caeebe4ad3c2dcb8e0b8892d8f8680", 0),
    "trajectory 3 --end 99 --stats --method lookup --format csv": ("8b79113271591b8344d8fed00a2d631adccd8d299d8e9e02e31de172410d3c7d", 0),
    "trajectory 281 --end 50281 --stats": ("9ffb626c9a622472f2bb3995332ba4565d16217468e9655a4ba59525e2ebfd2a", 0),
    "trajectory 281 --end 50281 --stats --format json": ("f37544b060c9ad2fa5636d5725674a59bc81a4bfb164942455f46a6abacc531a", 0),
    "trajectory 281 --end 50281 --stats --format csv": ("16a2421c0925ae75494593c754cba6bb3e0d5202b6243a95be537f4048256a02", 0),
    "trajectory 1 --end 2001 --stats": ("ad0305697ffb28257a64d2d1738fed4ec5147ca1ac0c85871c4767a9283b8753", 0),
    # 2**64 + 1 to 2**64 + 199
    "trajectory 18446744073709551617 --end 18446744073709551815 --stats": ("dd1c141c6465270ebd4b4eb16e76d3b7125a0ce58ca82852befeb3c8299d53b6", 0),
    "trajectory 18446744073709551617 --end 18446744073709551815 --stats --method lookup": ("dd1c141c6465270ebd4b4eb16e76d3b7125a0ce58ca82852befeb3c8299d53b6", 0),
    "COLLATZ_MAX_STEPS=20 trajectory 101 --end 2001 --stats": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    # 100 starts of 1000 bits, from 2**999 + 3**600: every walk jumps
    f"trajectory {2**999 + 3**600} --end {2**999 + 3**600 + 198} --stats": ("21dbe56ed0b35b3ae9ff2b638408082e2bc14b0c61694c5eeaefeae033034b89", 0),
    f"trajectory {2**999 + 3**600} --end {2**999 + 3**600 + 198} --stats --format json": ("a26b7e484d71eb4c391ac2172329b101f394cfb355c9406f9c400c9935f5304c", 0),
    f"trajectory {2**999 + 3**600} --end {2**999 + 3**600 + 198} --stats --format csv": ("d6ff2f9b16f641e403c241421bf6d122098313adfdb5bdc9ab95a91a4df5613a", 0),
    # the same starts by lookup: the same bytes as the direct route
    f"trajectory {2**999 + 3**600} --end {2**999 + 3**600 + 198} --stats --method lookup": ("21dbe56ed0b35b3ae9ff2b638408082e2bc14b0c61694c5eeaefeae033034b89", 0),
    f"trajectory {2**999 + 3**600} --end {2**999 + 3**600 + 198} --stats --format json --method lookup": ("a26b7e484d71eb4c391ac2172329b101f394cfb355c9406f9c400c9935f5304c", 0),
    f"trajectory {2**999 + 3**600} --end {2**999 + 3**600 + 198} --stats --format csv --method lookup": ("d6ff2f9b16f641e403c241421bf6d122098313adfdb5bdc9ab95a91a4df5613a", 0),
    # 22 starts from 2**1100 - 1: a first start of DECIMAL_MIN_BITS bits or
    # more, which the direct kernel walks with no record; on a budget of 100
    # steps it exits 3 at that start
    f"trajectory {2**1100 - 1} --end {2**1100 + 41} --stats": ("50fbc4a8bf721c46f952d5e406be1821b1ccd85f1f37a9063fee88f7f309cb9b", 0),
    f"trajectory {2**1100 - 1} --end {2**1100 + 41} --stats --format json": ("fc89b5788a85f7871299807bbad7cdff5f87cbdcef74863d6904122c257192b5", 0),
    f"trajectory {2**1100 - 1} --end {2**1100 + 41} --stats --format csv": ("323bbca6b9845540098640823bf7be82c67827625ca7c0a5cc2fadd6734ad067", 0),
    f"trajectory {2**1100 - 1} --end {2**1100 + 41} --stats --method lookup": ("50fbc4a8bf721c46f952d5e406be1821b1ccd85f1f37a9063fee88f7f309cb9b", 0),
    f"trajectory {2**1100 - 1} --end {2**1100 + 41} --stats --format json --method lookup": ("fc89b5788a85f7871299807bbad7cdff5f87cbdcef74863d6904122c257192b5", 0),
    f"trajectory {2**1100 - 1} --end {2**1100 + 41} --stats --format csv --method lookup": ("323bbca6b9845540098640823bf7be82c67827625ca7c0a5cc2fadd6734ad067", 0),
    f"COLLATZ_MAX_STEPS=100 trajectory {2**1100 - 1} --end {2**1100 + 41} --stats": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    # 150001 starts: the direct route fills the whole 2**17-start join table
    # and goes on past it
    "trajectory 1 --end 300001 --stats": ("9b688a3d77771764f819e2ffacebb77f367b97057a1f85adbc6e614af136c0aa", 0),
    "trajectory 1 --end 300001 --stats --format json": ("e4cb7d7973d7a0c0caf5cbc3818069422296f56c535cd6a48c91a7d6750bd153", 0),
    "trajectory 1 --end 300001 --stats --format csv": ("6e964bb5c624a0e11d652a662f1d62b47e19078e335e2de184581a9e986abe62", 0),
    # record lines of a range: direct starts past the first join the lines
    # of earlier starts, lookup walks every start in full; 2**64 + 1 to
    # 2**64 + 199 joins nothing (every line is longer than a block); an empty
    # range writes nothing; a range over budget keeps its earlier lines
    "trajectory 1 --end 2001": ("1338934758b1bf41dba4863c9f09f11483d140502997462e0d61d7567c88baff", 0),
    "trajectory 899 --end 25899 --format json": ("a4a03a1771892f5cfbd630980665f05296b433bea0d7beddfdb4abe9675db9ed", 0),
    "trajectory 1 --end 2001 --method lookup --format json": ("328f5c60502d72c0e44d8194fa0dacb072df6a80b693756405eda16edaae7b10", 0),
    "trajectory 18446744073709551617 --end 18446744073709551815": ("6e63563e540f932d2cc3b3ec0245a282ae8d1c51e5eb351de202360110c60cfb", 0),
    # 2**1100 - 1 to 2**1100 + 3: lines of 5108, 2716 and 2448 iterates,
    # each streamed inside the range
    f"trajectory {2**1100 - 1} --end {2**1100 + 3}": ("3b2bfe90c7c608a012753b59c3d63a72e084bc5cd4879bd66cad3efa0586da87", 0),
    f"trajectory {2**1100 - 1} --end {2**1100 + 3} --format json": ("cc78e4429041e75331bcedde6ded8e9bd47ed2da7506d5d6c3a9cec40069db95", 0),
    f"trajectory {2**1100 - 1} --end {2**1100 + 3} --method lookup": ("3b2bfe90c7c608a012753b59c3d63a72e084bc5cd4879bd66cad3efa0586da87", 0),
    f"trajectory {2**1100 - 1} --end {2**1100 + 3} --method lookup --format json": ("cc78e4429041e75331bcedde6ded8e9bd47ed2da7506d5d6c3a9cec40069db95", 0),
    "trajectory 4 --end 4": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    "COLLATZ_MAX_STEPS=20 trajectory 101 --end 2001": ("f55e85669c68ea52fe37db8f2ffd1b193979e75d9bd0aee6f8ccd2bad63d89ce", 3),
    "trajectory 9 --end 7": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1),
    "predecessors 41 --count 3": ("39ecf059e48c88f532da9697f75095b472602bfd1a6682236a452e2dfe783ce2", 0),
    "predecessors 41 --count 3 --format json": ("962b814a1d12c90f2977b4fe074db42228acc4d4dfd2422d0962b8ee2b04e266", 0),
    "predecessors 85 --to-starter": ("a59537b9797ebae4348f8eae0d6be2f59c957db15fa88ac933082fdeb683eb97", 0),
    "predecessors 85 --to-starter --format json": ("0659e4d7fbc88c6e333872c97ab9227f536cb1cfde77c48210f216c4e776d83c", 0),
    "predecessors 9": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1),
    "locate 27": ("d8e48c3431c00f0d9653023084a559132ef7f0f9c8ba850d2943d2c9692407b6", 0),
    "locate 27 --format json": ("8e91baea396f90eb3904f161407c6544980a1c0dcb3a9f4750f947fabf954886", 0),
    "locate 8": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1),
    "tree --depth 2 --breadth 3": ("ae697b8b7202c3e2c8f012e38d844b8c5a101ab605ae7608f87f30a77db9d6cd", 0),
    "tree --depth 2 --breadth 3 --format json": ("250ae36cced88dbdfc435ae549f6d7398ae35962ef5148a3981e944cf0df558f", 0),
    "tree --depth 2 --breadth 3 --format dot": ("f76b0aa0269c76e842b67e92ceaa106489b346b0e36514a7b4dbec32401efeee", 0),
    # six layers of the text outline: children nested under parents past the second layer
    "tree --depth 6 --breadth 3": ("55482aff659b45f59b1be6e1cb461423ab9e834a6a3b6d054d5904cf166a0799", 0),
    "alpha-table --rows 4 --cols 3": ("441cbbf9263fd98d8c3403e92bc4008ed56a3a6fb818d17e50257dfa7ce93531", 0),
    "alpha-table --rows 4 --cols 3 --format json": ("2bb17c82e3a440d110706adc4a01d9db7f2eb6a74ce35f672ddd2bb604de70ff", 0),
    "alpha-table --rows 4 --cols 3 --format csv": ("734ae5525a4a29e5a7b466bd1c4c9554d843bc6dba612a3287578b0d84c7abf0", 0),
    "alpha-table --rows 0": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1),
    "alpha-table --chain 63": ("d9b174c393cbd8f90334ba139320bbb7b2ca47cde5cf18bcef10dcd92f86de98", 0),
    "alpha-table --chain 63 --format json": ("9bf32650f1be48d56258f898e6dbc8c0668fc6755e34162272749c1cabc5df5d", 0),
    "alpha-table --chain 5": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1),
    "drift": ("45a9ef10743c76cfc9ccac2e814f9ff1ba6ec39e871217bbc3b950fd0fc70af4", 0),
    "drift --format json": ("92d0d3c276239898fc43090c7edff330db5e3e5b8eb071b821e8e598b3175684", 0),
    "drift --terms 5": ("97b334da4edfea79d05e4c0c5a6705bd5d580c3bfb060568646bc8900d4b89a8", 0),
    "drift --terms 5 --format json": ("54238e4dcb30d0711e7fea122ef868aa1eb47c3220c5a34c624110965ee33e17", 0),
    "drift --bound 10001": ("766afaa26b10c8e537e40ed598d44c7d83e7fd55dcec9e48503b4d4fdcd94cf8", 0),
    "drift --bound 10001 --format json": ("13c021c21faf07f1312aa9e874734b845a3af3a282659c8c6e9a3164bbbcc2f9", 0),
    "drift --terms 5 --bound 10001": ("939aa8066f9ab48005dd9bd4a38eda7243c68ddfdd611aade4694f9ad705e4f0", 0),
    "drift --terms 5 --bound 10001 --format json": ("2d192212b5fa717377894db0dfb86947b076a460e4d847d5de201eb3b11dae63", 0),
    "drift --bound 1000001 --workers 1": ("4e702e7c0d5cbc55d3ee16e9e98f3176f43d3e3bf0ff4f8483d67f509880dcbb", 0),
    "drift --bound 1000001 --workers 2": ("4e702e7c0d5cbc55d3ee16e9e98f3176f43d3e3bf0ff4f8483d67f509880dcbb", 0),
    "drift --bound 10001 --workers 0": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1),
    "drift --bound 2": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1),
    "verify --bound 2048": ("6280313fff26c9c25666a8cf3f70529666d402f6a9872d929eb232a87d118780", 0),
    "verify --bound 2048 --format json": ("6d4d9c6e6fb4efba65f61f2bf4f4e04e4e64a74f58631f9f40876ba1adb9f231", 0),
    "verify --bound 2048 --max-alpha 3 --format csv": ("e16355ab7bfc019dd91fd841b4dc06b6bc5577c85387d3784876718436d9da88", 0),
    "verify --bound 70001 --workers 2": ("fa238126c6ea06bffc831c997d8f8e50cdfffcbf04d67ff72b660d63c74d0e1f", 0),
    "verify --bound 70001 --workers 2 --format json": ("3b5a84517b4624000a35fe6afc959e30b07e98a27d6e5ac5e55521d898f479a3", 0),
    "verify --bound 70001 --workers 2 --format csv": ("0bf735e522c5d7c71a6083c8369dce3d90044b9c9932e6ae1be457ece2feb761", 0),
    # past the 2**18 join table, in this process (13 chunks, fewer than a
    # scan forks for); and a budget whose first failing start, 410011, lies
    # past it (every start below 262144 takes at most 164)
    "verify --bound 1048577 --workers 2": ("728d91f804045709abf36d5c8c5ee3fc6f8a36e0f110bcbcb937d294cd3734d2", 0),
    "verify --bound 1048577 --workers 2 --format json": ("2d4299e72a21c21544a7829ff91b514328124908052ec2c8566faaf68f80a1fb", 0),
    "COLLATZ_MAX_STEPS=164 verify --bound 1048577": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 3),
    "verify --bound 2": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1),
    "verify --bound 99 --workers 0": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1),
    "table-export --table A --rows 5": ("591a530180d6e48c256f10c25e54df1c9f889c009775fdf1759ac0fda0c51005", 0),
    "table-export --table B --rows 5 --cols 3": ("c691b758ccc10a3cc004c26f07debaf671784655c62506fd99630b88a623f92e", 0),
    "table-export --table A --rows 0": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1),
    "classify": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "nosuch": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    # lines argparse parses: an abbreviation, --opt=value, a negative
    # number, a repeated option, and two missing or invalid required options
    "tree --form json --depth 2": ("2d0892c1c7b065a9a3800a766d319d79ece78d34b7d6e570463fad2fa6a99220", 0),
    "classify --format=json 7": ("e2ab99312622dd735f245fa45c54a2630179825a95de17ef15db2cbec26838f0", 0),
    "classify -7": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 1),
    "trajectory 27 --format text --format json": ("d3f60b0e8f2f8447f82c841948faf412ba48fb051bca8419633709e80e475942", 0),
    "verify": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "table-export --table C": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
}


@pytest.mark.parametrize("command", list(MATRIX))
def test_command_matrix_stdout_and_exit_code_are_unchanged(command, monkeypatch):
    monkeypatch.delenv("COLLATZ_MAX_STEPS", raising=False)
    argv = command.split()
    while "=" in argv[0]:
        monkeypatch.setenv(*argv.pop(0).split("=", 1))
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    assert (hashlib.sha256(out.getvalue().encode()).hexdigest(), code) == MATRIX[command]


def direct_lines(command):
    # a direct trajectory command that writes lines, not --stats
    words = command.split()
    return words[sum("=" in w for w in words)] == "trajectory" and not {"--stats", "lookup"} & set(words)


@pytest.mark.parametrize("command", [c for c in MATRIX if direct_lines(c)])
def test_direct_lines_build_no_record(command, monkeypatch):
    from collatzkit import trajectory

    def no_record(*args):
        raise AssertionError("a direct line built a record")

    monkeypatch.setattr(trajectory, "_record", no_record)
    test_command_matrix_stdout_and_exit_code_are_unchanged(command, monkeypatch)


def test_a_stats_range_over_budget_names_its_first_failing_start(monkeypatch):
    monkeypatch.setenv("COLLATZ_MAX_STEPS", "20")
    out, err = io.StringIO(), io.StringIO()
    assert run("trajectory 101 --end 2001 --stats".split(), out, err) == 3
    assert err.getvalue() == "error: budget of 20 steps exhausted starting from 103\n"


def test_a_verify_over_budget_past_the_table_names_its_first_failing_start(monkeypatch):
    monkeypatch.setenv("COLLATZ_MAX_STEPS", "164")
    out, err = io.StringIO(), io.StringIO()
    assert run("verify --bound 1048577".split(), out, err) == 3
    assert err.getvalue() == "error: budget of 164 steps exhausted starting from 410011\n"
